package forest

// The reference oracles behind the differential tests: the
// sort-per-node tree builder the histogram trainer replaced, and the
// per-row pointer walk the compiled Kernel replaced. Production code
// has one path per operation (TrainMatrix, Kernel); these stay here so
// FuzzTrainDifferential and FuzzCompiledDifferential can prove that
// path bit-identical to the straightforward one, and so the
// train_speedup and kernel_speedup benchmarks have a denominator.

import (
	"fmt"
	"math/rand"
	"sort"

	"acclaim/internal/featspace"
	"acclaim/internal/stats"
)

// rowsMatrix appends row-of-slices data to a featspace.Matrix.
func rowsMatrix(x [][]float64) *featspace.Matrix {
	var m featspace.Matrix
	for _, row := range x {
		m.AppendRow(row...)
	}
	return &m
}

// trainRows fits a forest on row-of-slices data through the production
// entry point, TrainMatrix.
func trainRows(cfg Config, x [][]float64, y []float64) (*Forest, error) {
	return TrainMatrix(cfg, rowsMatrix(x), y)
}

// trainReference trains with the shared pre-draw and pool loop but
// grows every tree with the reference builder. x must be non-empty and
// rectangular.
func trainReference(cfg Config, x [][]float64, y []float64) *Forest {
	cfg = cfg.withDefaults(len(x[0]))
	return train(cfg, len(x), len(x[0]), y, func() fitter {
		return &builder{x: x, y: y, cfg: cfg}
	})
}

// fv pairs one sample's feature value with its target for split scans.
type fv struct{ v, y float64 }

// builder grows trees. One builder serves one goroutine; its scratch
// buffers (perm, vals, part) persist across trees to keep per-split
// allocations off the hot path.
type builder struct {
	x     [][]float64
	y     []float64
	cfg   Config
	rng   *rand.Rand
	nodes []node
	hint  int // node count of the last tree grown, sizes the next arena

	perm []int // scratch: feature permutation (mirrors rand.Perm)
	vals []fv  // scratch: sorted (value, target) pairs per split scan
	part []int // scratch: right-side buffer for stable partition
}

// fitTree implements fitter; see build.
func (b *builder) fitTree(seed int64, boot []int) []node { return b.build(seed, boot) }

// build grows one tree from a fresh seed and bootstrap sample and
// returns its node arena. The arena is freshly allocated per tree (it
// is retained by the Forest); all other buffers are reused.
func (b *builder) build(seed int64, boot []int) []node {
	b.rng = rand.New(rand.NewSource(seed))
	b.nodes = make([]node, 0, b.hint)
	b.grow(boot, 0)
	nodes := b.nodes
	b.nodes = nil
	b.hint = len(nodes)
	return nodes
}

// grow builds the subtree over the samples in idx and returns its node
// index. idx is partitioned in place (order-preserving), so the caller
// must not rely on its order afterwards.
func (b *builder) grow(idx []int, depth int) int {
	mean, sse := meanSSE(b.y, idx)
	self := len(b.nodes)
	b.nodes = append(b.nodes, node{left: -1, right: -1, value: mean})
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || sse <= 1e-12 {
		return self
	}
	feat, thresh, ok := b.bestSplit(idx, sse)
	if !ok {
		return self
	}
	left, right := b.partition(idx, feat, thresh)
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return self
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[self].feature = feat
	b.nodes[self].thresh = thresh
	b.nodes[self].left = l
	b.nodes[self].right = r
	return self
}

// partition splits idx into the samples at or below thresh on feat and
// those above, preserving relative order (a stable partition, so the
// split scan downstream sees the same sample order the append-based
// partition produced). It reuses b.part and returns two subslices of
// idx.
func (b *builder) partition(idx []int, feat int, thresh float64) (left, right []int) {
	if cap(b.part) < len(idx) {
		b.part = make([]int, 0, len(idx))
	}
	rbuf := b.part[:0]
	k := 0
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			idx[k] = i
			k++
		} else {
			rbuf = append(rbuf, i)
		}
	}
	b.part = rbuf
	copy(idx[k:], rbuf)
	return idx[:k], idx[k:]
}

// featurePerm fills b.perm with the permutation rand.Perm would produce
// from the same stream (same Intn call sequence, no allocation) and
// returns its first MTry entries.
func (b *builder) featurePerm(n int) []int {
	if cap(b.perm) < n {
		b.perm = make([]int, n)
	}
	return fillPerm(b.rng, b.perm[:n], b.cfg.MTry)
}

// bestSplit scans MTry random features for the threshold minimizing the
// children's summed SSE. Returns ok=false if no split improves on the
// parent.
func (b *builder) bestSplit(idx []int, parentSSE float64) (feat int, thresh float64, ok bool) {
	nf := len(b.x[0])
	feats := b.featurePerm(nf)
	bestSSE := parentSSE - 1e-12
	if cap(b.vals) < len(idx) {
		b.vals = make([]fv, len(idx))
	}
	vals := b.vals[:len(idx)]
	for _, f := range feats {
		for j, i := range idx {
			vals[j] = fv{b.x[i][f], b.y[i]}
		}
		// The sort must be stable: equal feature values keep the node's
		// sample order, which fixes the float-summation order of the
		// prefix scans below. The compiled trainer reproduces exactly
		// that order with a stable counting sort over pre-binned
		// columns, making its SSE arithmetic — and therefore its chosen
		// splits — bit-identical to this reference path.
		sort.SliceStable(vals, func(a, c int) bool { return vals[a].v < vals[c].v })
		// Prefix sums let each candidate threshold be scored in O(1).
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, e := range vals {
			sumR += e.y
			sumSqR += e.y * e.y
		}
		nL := 0
		nR := len(vals)
		for j := 0; j < len(vals)-1; j++ {
			yv := vals[j].y
			sumL += yv
			sumSqL += yv * yv
			sumR -= yv
			sumSqR -= yv * yv
			nL++
			nR--
			if vals[j].v == vals[j+1].v {
				continue // cannot split between equal values
			}
			if nL < b.cfg.MinLeaf || nR < b.cfg.MinLeaf {
				continue
			}
			sse := (sumSqL - sumL*sumL/float64(nL)) + (sumSqR - sumR*sumR/float64(nR))
			if sse < bestSSE {
				bestSSE = sse
				feat = f
				thresh = (vals[j].v + vals[j+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

func meanSSE(y []float64, idx []int) (mean, sse float64) {
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	return mean, sse
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := t.nodes[i]
		if n.left == -1 {
			return n.value
		}
		if x[n.feature] <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Predict returns the ensemble mean prediction for x. It panics if x has
// the wrong dimensionality.
func (f *Forest) Predict(x []float64) float64 {
	f.check(x)
	var s float64
	for i := range f.trees {
		s += f.trees[i].predict(x)
	}
	return s / float64(len(f.trees))
}

// TreePredictions returns every tree's prediction for x — the vector p
// of the paper's Section IV-A jackknife procedure.
func (f *Forest) TreePredictions(x []float64) []float64 {
	f.check(x)
	out := make([]float64, len(f.trees))
	f.treePredictInto(x, out)
	return out
}

// treePredictInto fills dst (len == NumTrees) with per-tree predictions.
func (f *Forest) treePredictInto(x []float64, dst []float64) {
	for i := range f.trees {
		dst[i] = f.trees[i].predict(x)
	}
}

// JackknifeVariance computes the jackknife variance of the ensemble's
// predictions at x: the model's uncertainty there (Section IV-A,
// following Wager et al.).
func (f *Forest) JackknifeVariance(x []float64) float64 {
	return stats.JackknifeVariance(f.TreePredictions(x))
}

func (f *Forest) check(x []float64) {
	if len(x) != f.nFeatures {
		panic(fmt.Sprintf(dimPanicFormat, len(x), f.nFeatures))
	}
}

// oracleScores is the per-row reference sweep the kernel's batch entry
// points must reproduce: the ensemble mean and jackknife variance of
// every row of qs, one pointer walk per (row, tree) into one reused
// prediction buffer.
func oracleScores(f *Forest, qs [][]float64) (mean, vari []float64) {
	mean = make([]float64, len(qs))
	vari = make([]float64, len(qs))
	preds := make([]float64, len(f.trees))
	for i, q := range qs {
		mean[i] = f.Predict(q)
		f.treePredictInto(q, preds)
		vari[i] = stats.JackknifeVariance(preds)
	}
	return mean, vari
}
