// Compiled forest training: the histogram trainer lowers tree
// *building* onto flat pre-binned feature columns the same way
// compiled.go lowered inference onto flat node arrays. It is the
// training counterpart of the inference Kernel and the only path behind
// TrainMatrix; the pointer-chasing reference builder in oracle_test.go
// is its differential oracle.
//
// Binning. TrainMatrix computes per-feature bin edges once per call:
// the sorted distinct values of each featspace.Matrix column. Every
// sample value is replaced by its bin index — its rank among the
// column's distinct values — in one flat column-major int32 matrix.
// Because the bins are exact (one bin per distinct value, not a capped
// quantile sketch), nothing the reference split scan can distinguish is
// lost: candidate thresholds live only between adjacent distinct
// values, and the midpoint arithmetic reads the original values back
// out of the edge table.
//
// Split finding. The reference builder re-sorts the node's (value,
// target) pairs for every feature of every node — the dominant cost of
// tree growth. The trainer never sorts inside a node: it maintains,
// for each feature, the node's sample indices in sorted value order
// (ties in node order), built once per tree by a stable counting sort
// over the bins and kept sorted thereafter because the stable
// partition that splits a node splits each feature's order array too,
// and a stable filter of a sorted sequence stays sorted. A split scan
// is then one linear gather (targets + bins into SoA scratch) and one
// linear prefix-sum pass, with candidate boundaries wherever the bin
// index changes.
//
// Work skipping. A node does only the work that can change the tree,
// under three rules that each leave every output bit in place:
//
//   - A feature whose sorted order segment starts and ends in the same
//     bin is constant in the node. Its scan could yield no candidate,
//     so bestSplit skips it, and it stays constant in every descendant,
//     so its segment is never partitioned again in the subtree and no
//     descendant reads it. A per-depth row of flags in trainer scratch
//     (any column count, no allocation) carries the live set down the
//     tree; fillPerm still draws the full permutation, so the per-tree
//     RNG stream is unchanged.
//   - Each child's (mean, SSE) is computed once, right after idx is
//     partitioned, over the same slice the child would read. When both
//     children stop, no descendant reads an order segment, so none is
//     partitioned.
//   - stablePartition writes each index to both sides and advances only
//     its own side's cursor: the same sequence, without a
//     data-dependent branch.
//
// Determinism. Bit-identity with the reference builder is structural,
// not approximate: the per-tree RNG is pre-drawn identically, feature
// permutations consume the stream through the shared fillPerm, and the
// prefix-sum scan repeats the reference bestSplit's float expressions
// operation for operation over the exact sample order the reference's
// stable sort produces (see the induction argument in DESIGN.md,
// "Training kernel"). FuzzTrainDifferential pins node-for-node
// equality at every Workers count.
//
// Arena. Each trainer appends its trees' nodes straight into its
// worker's arena in the packed layout the inference Kernel walks (same
// parent, left-subtree, right-subtree emission order as the builder, so
// a left child is always its parent+1, and right children stored as
// offsets from their parent). train copies the arenas once, in tree
// order, into the Forest's node arrays — the offsets hold wherever a
// tree lands — and Compile serves those arrays as they are. train
// reserves room for the largest tree possible before each tree, and
// each trainer reseeds one stats.Source per tree instead of allocating
// a math/rand generator, so growing a tree allocates nothing once
// scratch is warm: order building, live-set marking, split scans and
// partitions included. The zeroalloc annotations,
// TestTrainerSteadyStateZeroAlloc and BenchmarkTrainSplitScan's hard
// benchguard gate hold that line.
package forest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"acclaim/internal/featspace"
	"acclaim/internal/stats"
)

// binset is the pre-binned, read-only view of one training matrix,
// shared by every trainer goroutine of a TrainMatrix call.
type binset struct {
	n, nf int

	// bins is column-major: bins[f*n+i] is sample i's rank among the
	// distinct values of feature f.
	bins []int32

	// edges[f] holds feature f's distinct values, ascending;
	// edges[f][bins[f*n+i]] == the original value.
	edges [][]float64

	maxBins int // max distinct values over all features, sizes trainer.cnt
}

// newBinset computes bin edges and binned columns for an n×nf matrix.
// col must gather column f into dst[:n]. Called once per TrainMatrix;
// the result is immutable and safe to share across worker goroutines.
func newBinset(n, nf int, col func(f int, dst []float64)) *binset {
	bs := &binset{
		n:     n,
		nf:    nf,
		bins:  make([]int32, n*nf),
		edges: make([][]float64, nf),
	}
	vals := make([]float64, n)
	sorted := make([]float64, n)
	for f := 0; f < nf; f++ {
		col(f, vals)
		copy(sorted, vals)
		sort.Float64s(sorted)
		edges := make([]float64, 0, 16)
		for i, v := range sorted {
			if i == 0 || v != edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		bs.edges[f] = edges
		if len(edges) > bs.maxBins {
			bs.maxBins = len(edges)
		}
		out := bs.bins[f*n : (f+1)*n]
		for i, v := range vals {
			out[i] = int32(sort.SearchFloat64s(edges, v))
		}
	}
	return bs
}

// trainer grows trees on a binset. One trainer serves one goroutine;
// all scratch persists across the trees that goroutine grows, so
// steady-state growth performs no allocations.
type trainer struct {
	bs  *binset
	y   []float64
	cfg Config
	src stats.Source // the current tree's stream, reseeded per tree
	rng *rand.Rand   // draws from src

	out   *packed // arena the current tree appends to
	depth int     // deepest node of the current tree so far

	nb    int     // bootstrap size of the current tree
	idx   []int32 // current tree's sample indices, partitioned in place
	order []int32 // column-major per-feature sorted orders: order[f*nb+pos]
	part  []int32 // scratch: right side of the stable partitions
	cnt   []int32 // counting-sort workspace, all-zero between uses
	ybuf  []float64
	bbuf  []int32 // SoA split-scan gather: targets and bins in node-sorted order
	perm  []int   // scratch: feature permutation (mirrors rand.Perm)

	// live holds one row of nf flags per depth: live[d*nf+f] says
	// feature f still varies in the node being split at depth d. Growth
	// is depth-first, so a node's row is intact while its subtree grows.
	live []bool
}

// ensure sizes every scratch buffer for a bootstrap of nb samples.
func (t *trainer) ensure(nb int) {
	t.nb = nb
	if cap(t.idx) < nb {
		t.idx = make([]int32, nb)
		t.part = make([]int32, nb)
		t.ybuf = make([]float64, nb)
		t.bbuf = make([]int32, nb)
	}
	t.idx = t.idx[:nb]
	if need := nb * t.bs.nf; cap(t.order) < need {
		t.order = make([]int32, need)
	}
	if cap(t.cnt) < t.bs.maxBins {
		t.cnt = make([]int32, t.bs.maxBins) // zeroed by make; kept zero after use
	}
	if cap(t.perm) < t.bs.nf {
		t.perm = make([]int, t.bs.nf)
	}
	// Only nodes shallower than MaxDepth split, and a node at depth d
	// holds at most nb-d samples, so it splits only when d <= nb-2:
	// depths [0, min(MaxDepth, nb)) need rows.
	if need := min(t.cfg.MaxDepth, nb) * t.bs.nf; cap(t.live) < need {
		t.live = make([]bool, need)
	}
}

// newTrainer returns a trainer for bs and targets y; cfg must already
// have defaults applied.
func newTrainer(bs *binset, y []float64, cfg Config) *trainer {
	t := &trainer{bs: bs, y: y, cfg: cfg}
	t.rng = rand.New(&t.src)
	return t
}

// fitTree implements fitter: it grows one tree from a fresh seed and
// bootstrap sample, bit-identical to builder.build on the same inputs.
func (t *trainer) fitTree(seed int64, boot []int, dst *packed) int {
	t.src.Seed(seed)
	t.ensure(len(boot))
	for i, s := range boot {
		t.idx[i] = int32(s)
	}
	t.buildOrders()
	t.out, t.depth = dst, 0
	mean, sse := meanSSE32(t.y, t.idx)
	t.growRange(0, t.nb, 0, mean, sse)
	return t.depth
}

// buildOrders fills order with each feature's stable counting sort of
// the bootstrap: positions [0,nb) hold the sample indices sorted by
// feature value, ties in bootstrap order — exactly the sequence the
// reference builder's stable sort produces at the root. cnt is all
// zeros on entry and is re-zeroed before returning.
//
//acclaim:zeroalloc
func (t *trainer) buildOrders() {
	n, nb := t.bs.n, t.nb
	bins, cnt := t.bs.bins, t.cnt
	idx := t.idx[:nb]
	for f := 0; f < t.bs.nf; f++ {
		col := bins[f*n : (f+1)*n]
		nbins := len(t.bs.edges[f])
		for _, i := range idx {
			cnt[col[i]]++
		}
		var run int32
		for b := 0; b < nbins; b++ {
			c := cnt[b]
			cnt[b] = run
			run += c
		}
		out := t.order[f*nb : (f+1)*nb]
		for _, i := range idx {
			b := col[i]
			out[cnt[b]] = i
			cnt[b]++
		}
		for b := 0; b < nbins; b++ {
			cnt[b] = 0
		}
	}
}

// growRange builds the subtree over the samples in idx[lo:hi], whose
// target mean and SSE the caller has already computed, and returns its
// node index. It mirrors builder.grow stopping rule for stopping rule;
// idx and the order segments of the features that still vary are
// partitioned in place, preserving relative order.
func (t *trainer) growRange(lo, hi, depth int, mean, sse float64) int {
	self := t.pushLeaf(mean, depth)
	if t.stops(hi-lo, depth, sse) {
		return self
	}
	live := t.markLive(lo, hi, depth)
	feat, thresh, cut, ok := t.bestSplit(lo, hi, sse, live)
	if !ok {
		return self
	}
	idx := t.idx[lo:hi]
	k := t.stablePartition(idx, feat, cut)
	if k < t.cfg.MinLeaf || len(idx)-k < t.cfg.MinLeaf {
		return self
	}
	// meanSSE32 over the partitioned halves of idx is exactly what each
	// child would compute over its own range. When both children stop,
	// no descendant reads an order segment, so none is partitioned.
	lMean, lSSE := meanSSE32(t.y, idx[:k])
	rMean, rSSE := meanSSE32(t.y, idx[k:])
	if !t.stops(k, depth+1, lSSE) || !t.stops(len(idx)-k, depth+1, rSSE) {
		for f, on := range live {
			if on {
				t.stablePartition(t.order[f*t.nb+lo:f*t.nb+hi], feat, cut)
			}
		}
	}
	t.growRange(lo, lo+k, depth+1, lMean, lSSE) // lands at self+1
	r := t.growRange(lo+k, hi, depth+1, rMean, rSSE)
	t.out.meta[self] = steer(r-self, feat)
	t.out.val[self] = thresh
	return self
}

// pushLeaf appends a leaf predicting mean at depth to the arena and
// returns its index: a zero steering word and the mean as its value,
// which growRange overwrites with a split's word and threshold once
// the node's children exist.
func (t *trainer) pushLeaf(mean float64, depth int) int {
	a := t.out
	i := len(a.meta)
	a.meta = append(a.meta, 0)
	a.val = append(a.val, mean)
	t.depth = max(t.depth, depth)
	return i
}

// stops is builder.grow's stopping rule for a node of n samples.
func (t *trainer) stops(n, depth int, sse float64) bool {
	return depth >= t.cfg.MaxDepth || n < 2*t.cfg.MinLeaf || sse <= 1e-12
}

// markLive fills and returns the live row of the node [lo,hi) at depth:
// the features whose bins are not all equal there. An order segment is
// sorted, so its first and last bins decide that in O(1). A feature
// constant in the parent stays constant in the child and its segment
// was never partitioned, so only the parent's live features are tested.
//
//acclaim:zeroalloc
func (t *trainer) markLive(lo, hi, depth int) []bool {
	n, nb, nf := t.bs.n, t.nb, t.bs.nf
	row := t.live[depth*nf : (depth+1)*nf]
	for f := range row {
		if depth > 0 && !t.live[(depth-1)*nf+f] {
			row[f] = false
			continue
		}
		col := t.bs.bins[f*n : (f+1)*n]
		row[f] = col[t.order[f*nb+lo]] != col[t.order[f*nb+hi-1]]
	}
	return row
}

// bestSplit scans MTry random features (same fillPerm stream as the
// reference) for the threshold minimizing the children's summed SSE,
// skipping features constant in the node: their scan has no candidate
// boundary. cut is the highest bin index the left child keeps — the
// integer form of the reference partition's `value <= thresh`
// predicate, which can include the right boundary bin when the midpoint
// rounds up to it.
func (t *trainer) bestSplit(lo, hi int, parentSSE float64, live []bool) (feat int, thresh float64, cut int32, ok bool) {
	feats := fillPerm(t.rng, t.perm[:t.bs.nf], t.cfg.MTry)
	bestSSE := parentSSE - 1e-12
	for _, f := range feats {
		if !live[f] {
			continue
		}
		if sse, th, c, o := t.scanFeature(f, lo, hi, bestSSE); o {
			bestSSE, feat, thresh, cut, ok = sse, f, th, c, true
		}
	}
	return feat, thresh, cut, ok
}

// scanFeature runs the prefix-sum split scan over feature f's sorted
// order segment [lo,hi) and returns the best candidate strictly below
// limit. The float expressions repeat builder.bestSplit operation for
// operation over the same sample order, so the computed SSEs — and the
// comparisons deciding the returned split — are bit-identical to the
// reference scan.
//
//acclaim:zeroalloc
func (t *trainer) scanFeature(f, lo, hi int, limit float64) (bestSSE, thresh float64, cut int32, ok bool) {
	n, nb := t.bs.n, t.nb
	col := t.bs.bins[f*n : (f+1)*n]
	edges := t.bs.edges[f]
	m := hi - lo
	ys := t.ybuf[:m]
	bks := t.bbuf[:m]
	for j, i := range t.order[f*nb+lo : f*nb+hi] {
		ys[j] = t.y[i]
		bks[j] = col[i]
	}

	bestSSE = limit
	var sumL, sumSqL float64
	var sumR, sumSqR float64
	for _, yv := range ys {
		sumR += yv
		sumSqR += yv * yv
	}
	nL := 0
	nR := m
	minLeaf := t.cfg.MinLeaf
	for j := 0; j < m-1; j++ {
		yv := ys[j]
		sumL += yv
		sumSqL += yv * yv
		sumR -= yv
		sumSqR -= yv * yv
		nL++
		nR--
		if bks[j] == bks[j+1] {
			continue // cannot split between equal values
		}
		if nL < minLeaf || nR < minLeaf {
			continue
		}
		sse := (sumSqL - sumL*sumL/float64(nL)) + (sumSqR - sumR*sumR/float64(nR))
		if sse < bestSSE {
			bestSSE = sse
			thresh = (edges[bks[j]] + edges[bks[j+1]]) / 2
			// The reference partitions on `value <= thresh`: when the
			// midpoint of two adjacent floats rounds up to the right
			// value, that value crosses to the left side.
			cut = bks[j]
			if edges[bks[j+1]] <= thresh {
				cut = bks[j+1]
			}
			ok = true
		}
	}
	return bestSSE, thresh, cut, ok
}

// stablePartition reorders arr so samples with feature f's bin <= cut
// come first, preserving relative order on both sides — the binned
// form of builder.partition, sharing its scratch-buffer discipline —
// and returns the left-side count. The loop has no data-dependent
// branch: every index is written to both sides and only the cursor of
// its own side advances, so the next write to the other side
// overwrites it. k never passes the read position, so arr[k] has
// already been read.
//
//acclaim:zeroalloc
func (t *trainer) stablePartition(arr []int32, f int, cut int32) int {
	col := t.bs.bins[f*t.bs.n : (f+1)*t.bs.n]
	buf := t.part[:len(arr)]
	k, r := 0, 0
	for _, i := range arr {
		left := 0
		if col[i] <= cut {
			left = 1
		}
		arr[k] = i
		buf[r] = i
		k += left
		r += 1 - left
	}
	copy(arr[k:], buf[:r])
	return k
}

// meanSSE32 is meanSSE over an int32 index slice: the same accumulation
// order, so node means and stopping decisions match the reference.
func meanSSE32(y []float64, idx []int32) (mean, sse float64) {
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

// TrainMatrix fits a forest on an encoded featspace.Matrix (rows are
// samples) and its targets y; all values must be finite. Bin edges are
// computed once per call straight off the matrix columns and shared
// across the worker pool. Training is deterministic for a given
// Config.Seed: the bootstrap indices and per-tree seeds are drawn from
// the master RNG stream up front, in tree order, exactly as a serial
// loop would draw them, and only then are the trees grown on the pool —
// so every Workers setting yields a bit-identical forest, node for node
// the reference builder's (FuzzTrainDifferential).
func TrainMatrix(cfg Config, m *featspace.Matrix, y []float64) (*Forest, error) {
	rows, cols := m.Rows(), m.Cols()
	if cols < 1 {
		return nil, errors.New("forest: samples have no features")
	}
	if rows == 0 {
		return nil, errors.New("forest: no training samples")
	}
	if rows != len(y) {
		return nil, fmt.Errorf("forest: %d samples but %d targets", rows, len(y))
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(cols)
	if err := checkLayout(cfg, rows, cols); err != nil {
		return nil, err
	}
	bs := newBinset(rows, cols, m.Col)
	return train(cfg, rows, cols, y, func() fitter {
		return newTrainer(bs, y, cfg)
	}), nil
}

// validate rejects a negative count: NTrees and MaxDepth would panic in
// a make or a shift, MTry inside a pool goroutine, which kills the
// process, and a negative MinLeaf would switch its stopping rule off.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"NTrees", c.NTrees}, {"MaxDepth", c.MaxDepth}, {"MinLeaf", c.MinLeaf}, {"MTry", c.MTry}} {
		if f.v < 0 {
			return fmt.Errorf("forest: Config.%s is %d, want >= 0", f.name, f.v)
		}
	}
	return nil
}

// checkLayout rejects a forest the steering word cannot encode: a
// feature index needs 7 bits, and a right child's offset, which is
// below its tree's node count, 24. cfg must have defaults applied, and
// a bootstrap has rows samples.
func checkLayout(cfg Config, rows, cols int) error {
	if cols > maxColumns {
		return fmt.Errorf("forest: %d feature columns, the node layout holds at most %d", cols, maxColumns)
	}
	if n := cfg.maxTreeNodes(rows); n > maxOffset {
		return fmt.Errorf("forest: a tree of %d samples may reach %d nodes, the node layout holds at most %d (raise MinLeaf or lower MaxDepth)", rows, n, maxOffset)
	}
	return nil
}
