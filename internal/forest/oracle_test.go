package forest

// The reference oracles behind the differential tests: the
// sort-per-node tree builder the histogram trainer replaced, the
// per-row pointer walk the compiled Kernel replaced, and the paper's
// literal jackknife variance formula the Kernel's fused scoring pass
// reproduces. Production code has one path per operation (TrainMatrix,
// Kernel); these stay here so FuzzTrainDifferential and
// FuzzCompiledDifferential can prove that path bit-identical to the
// straightforward one, and so the train_speedup and kernel_speedup
// benchmarks have a denominator.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"acclaim/internal/featspace"
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

// node is one tree node of the reference builder's per-tree arena.
// Leaves have left == -1.
type node struct {
	feature int
	thresh  float64
	left    int
	right   int
	value   float64
}

// tree is a CART regression tree as the reference builder emits it:
// tree-local child indices.
type tree struct {
	nodes []node
}

// appendTree writes nodes to dst in the packed layout (see compiled.go)
// and returns the tree's edge depth. It is how the reference builder's
// trees reach the production Forest, so the builder must keep a left
// child adjacent to its parent, as the trainer does.
func appendTree(dst *packed, nodes []node) int {
	base := len(dst.meta)
	for i, n := range nodes {
		j := base + i
		dst.value = append(dst.value, n.value)
		if n.left == -1 {
			dst.meta = append(dst.meta, int64(j)<<32)
			dst.thresh = append(dst.thresh, math.NaN())
			continue
		}
		if n.left != i+1 {
			panic("forest: reference tree violates left-child adjacency")
		}
		dst.meta = append(dst.meta, int64(base+n.right)<<32|int64(n.feature))
		dst.thresh = append(dst.thresh, n.thresh)
	}
	return nodeDepth(nodes, 0)
}

// nodeDepth returns the edge depth of the subtree rooted at i: 0 for a
// leaf. Tree depth is bounded by Config.MaxDepth, so recursion is safe.
func nodeDepth(nodes []node, i int) int {
	n := nodes[i]
	if n.left == -1 {
		return 0
	}
	return 1 + max(nodeDepth(nodes, n.left), nodeDepth(nodes, n.right))
}

// unpack rebuilds the forest's trees in the reference builder's form
// from the packed layout: tree-local indices, and leaves with feature 0
// and threshold 0, exactly as builder.grow appends them. It inverts
// appendTree, so node-for-node comparisons of unpacked forests compare
// the packed arrays.
func (f *Forest) unpack() []tree {
	trees := make([]tree, len(f.roots))
	for ti := range trees {
		lo, hi := int(f.roots[ti]), len(f.meta)
		if ti+1 < len(f.roots) {
			hi = int(f.roots[ti+1])
		}
		nodes := make([]node, hi-lo)
		for j := lo; j < hi; j++ {
			m := f.meta[j]
			r := int(m >> 32)
			if r == j {
				nodes[j-lo] = node{left: -1, right: -1, value: f.value[j]}
				continue
			}
			nodes[j-lo] = node{feature: int(int32(m)), thresh: f.thresh[j], left: j + 1 - lo, right: r - lo, value: f.value[j]}
		}
		trees[ti] = tree{nodes: nodes}
	}
	return trees
}

// fv pairs one sample's feature value with its target for split scans.
type fv struct{ v, y float64 }

// builder grows trees. One builder serves one goroutine; its node
// arena and scratch buffers (perm, vals, part) persist across trees to
// keep per-split allocations off the hot path.
type builder struct {
	x     [][]float64
	y     []float64
	cfg   Config
	rng   *rand.Rand
	nodes []node // arena of the tree being grown, reused across trees

	perm []int // scratch: feature permutation (mirrors rand.Perm)
	vals []fv  // scratch: sorted (value, target) pairs per split scan
	part []int // scratch: right-side buffer for stable partition
}

// fitTree implements fitter; see build.
func (b *builder) fitTree(seed int64, boot []int, dst *packed) int {
	return appendTree(dst, b.build(seed, boot))
}

// build grows one tree from a fresh seed and bootstrap sample and
// returns its node arena, which the next build overwrites.
func (b *builder) build(seed int64, boot []int) []node {
	b.rng = rand.New(rand.NewSource(seed))
	b.nodes = b.nodes[:0]
	b.grow(boot, 0)
	return b.nodes
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

// Predict returns the ensemble mean prediction for x by pointer walks
// over the unpacked trees. It panics if x has the wrong dimensionality.
func (f *Forest) Predict(x []float64) float64 {
	f.check(x)
	return predictMean(f.unpack(), x)
}

// predictMean is the reference ensemble mean: per-tree predictions
// summed in tree order.
func predictMean(trees []tree, x []float64) float64 {
	var s float64
	for i := range trees {
		s += trees[i].predict(x)
	}
	return s / float64(len(trees))
}

// TreePredictions returns every tree's prediction for x — the vector p
// of the paper's Section IV-A jackknife procedure.
func (f *Forest) TreePredictions(x []float64) []float64 {
	f.check(x)
	trees := f.unpack()
	out := make([]float64, len(trees))
	treePredictInto(trees, x, out)
	return out
}

// treePredictInto fills dst (len == len(trees)) with per-tree
// predictions.
func treePredictInto(trees []tree, x []float64, dst []float64) {
	for i := range trees {
		dst[i] = trees[i].predict(x)
	}
}

// JackknifeVariance computes the jackknife variance of the ensemble's
// predictions at x: the model's uncertainty there (Section IV-A,
// following Wager et al.).
func (f *Forest) JackknifeVariance(x []float64) float64 {
	return jackknifeVariance(f.TreePredictions(x))
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
	trees := f.unpack()
	preds := make([]float64, len(trees))
	for i, q := range qs {
		f.check(q)
		mean[i] = predictMean(trees, q)
		treePredictInto(trees, q, preds)
		vari[i] = jackknifeVariance(preds)
	}
	return mean, vari
}

// jackknifeVariance computes the jackknife variance of the values p
// exactly as laid out in Section IV-A of the paper:
//
//	x_p   = mean(p)
//	x_i   = mean of p with p_i removed
//	sigma² = Σ (x_p − x_i)² / (n − 1)
//
// For n < 2 the variance is 0 (a single prediction carries no spread).
//
// In ACCLAiM, p holds the per-tree predictions of a random-forest
// regressor at one candidate point (Wager et al.), so sigma² measures the
// model's uncertainty there.
func jackknifeVariance(p []float64) float64 {
	n := len(p)
	if n < 2 {
		return 0
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	xp := sum / float64(n)
	var acc float64
	for _, v := range p {
		// Mean with v removed: (sum - v)/(n-1). The deviation from the
		// full mean simplifies to (v - xp)/(n-1), but we follow the
		// paper's formulation literally for clarity.
		xi := (sum - v) / float64(n-1)
		d := xp - xi
		acc += d * d
	}
	return acc / float64(n-1)
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestJackknifeVarianceKnown(t *testing.T) {
	// For p = (0, 2): xp = 1, x1 = 2, x2 = 0; sigma^2 = ((1-2)^2 + (1-0)^2)/1 = 2.
	if v := jackknifeVariance([]float64{0, 2}); !closeTo(v, 2, 1e-12) {
		t.Errorf("jackknifeVariance(0,2) = %v, want 2", v)
	}
	// Identical predictions carry zero variance.
	if v := jackknifeVariance([]float64{5, 5, 5, 5}); v != 0 {
		t.Errorf("constant variance = %v, want 0", v)
	}
	if v := jackknifeVariance([]float64{7}); v != 0 {
		t.Errorf("singleton variance = %v, want 0", v)
	}
	if v := jackknifeVariance(nil); v != 0 {
		t.Errorf("empty variance = %v, want 0", v)
	}
}

// The jackknife deviation simplifies algebraically: x_p - x_i = (p_i - x_p)/(n-1),
// so sigma^2 = sum (p_i - x_p)^2 / (n-1)^3. Check the implementation against
// this closed form on random inputs.
func TestJackknifeVarianceClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64() * 10
		}
		got := jackknifeVariance(p)
		var xp float64
		for _, v := range p {
			xp += v
		}
		xp /= float64(n)
		var ss float64
		for _, v := range p {
			ss += (v - xp) * (v - xp)
		}
		want := ss / math.Pow(float64(n-1), 3)
		return closeTo(got, want, 1e-9*(1+want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: jackknife variance is translation invariant and scales with c^2.
func TestJackknifeVarianceScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		p := make([]float64, n)
		q := make([]float64, n)
		r := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64()
			q[i] = p[i] + 100
			r[i] = 3 * p[i]
		}
		vp, vq, vr := jackknifeVariance(p), jackknifeVariance(q), jackknifeVariance(r)
		return closeTo(vp, vq, 1e-9*(1+vp)) && closeTo(vr, 9*vp, 1e-9*(1+vr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
