// Compiled forest inference: Forest.Compile lowers a trained forest
// into a structure-of-arrays Kernel, the only scorer of a forest. Its
// flat batch entry points are the scoring hot path of every autotuner
// round (the jackknife sweep over the candidate pool, Section IV-A) and
// of the rule-extraction and evaluation sweeps.
//
// Layout. The per-tree []node arenas are concatenated into flat
// per-forest slices — feature[], thresh[], left[], right[], value[] —
// plus roots[] / depths[] offsets per tree, plus a packed steering
// word meta[] = right<<32 | feature for the batch walk. There is no
// per-node struct and no per-tree slice header: a batch descent step
// loads only one 8-byte steering word and one 8-byte threshold
// instead of copying a 40-byte node struct. Leaves are encoded as
// feature == -1 and lowered as self-loops (left == right == self,
// steering word self<<32, thresh == NaN so the descent compare never
// fires) — the batch walk needs no leaf special case; left children
// sit at parent+1 by the builder's arena order.
//
// Tiling. Batch calls walk tree x query tiles: queries are cut into
// blocks of blockQ rows, and within a block the kernel iterates trees
// in the outer loop — one tree's nodes stay cache-hot across the whole
// block instead of every query re-faulting all NTrees working sets.
// The fused score path computes the ensemble mean and the jackknife
// variance in one streaming pass over the tile: per-query running sums
// during the prediction pass, then a second pass over the (NTrees x
// blockQ) tile — never a trees x queries matrix.
//
// Determinism. For each query, per-tree predictions are accumulated in
// tree order (the tile loops keep t ascending for every fixed q), and
// the mean / jackknife arithmetic repeats the reference expressions of
// the per-row pointer walk and jackknifeVariance (both in
// oracle_test.go) operation for operation, so kernel results are
// bit-identical to that oracle at every Workers count —
// FuzzCompiledDifferential holds that line.
package forest

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// blockQ is the query-tile width. 64 queries x 30 trees is a 15 KiB
// prediction tile — comfortably L1/L2-resident next to one tree's
// nodes.
const blockQ = 64

// Kernel is a compiled, immutable inference representation of a
// trained Forest. All methods are safe for concurrent use: the node
// arrays are read-only after Compile and per-call scratch comes from
// an internal pool. Results are bit-identical to the reference pointer
// walk for every Workers setting.
//
//acclaim:frozen
type Kernel struct {
	nTrees    int
	nFeatures int
	workers   int // Config.Workers of the source forest

	// Structure-of-arrays node storage. Leaves have feature == -1 and
	// their prediction in value; internal nodes hold global (already
	// tree-offset) child indices in left/right.
	feature []int32
	thresh  []float64
	left    []int32
	right   []int32
	value   []float64
	roots   []int32 // per-tree root offset into the node arrays
	depths  []int32 // per-tree depth, bounds the level-synchronous batch walk

	// meta packs each node's batch-walk steering word:
	// right-child index << 32 | feature index (leaf: self << 32 | 0).
	// One load per descent step replaces separate feature/right loads.
	meta []int64

	pool sync.Pool // *kernelScratch, reused across batch calls
}

// kernelScratch is one worker's tile buffers. Instances are pooled on
// the Kernel, so steady-state batch scoring performs no allocations.
type kernelScratch struct {
	preds []float64 // nTrees x blockQ per-tree prediction tile, tree-major
	sums  []float64 // per-query running sum over trees
	xps   []float64 // per-query ensemble mean (the jackknife x_p)
	acc   []float64 // per-query jackknife accumulator
	idx   []int32   // per-query node cursor for the level-synchronous walk
}

// Compile lowers the trained forest into its SoA inference kernel.
// The kernel shares no state with the forest and inherits its Workers
// setting for batch fan-out.
func (f *Forest) Compile() *Kernel {
	total := 0
	for i := range f.trees {
		total += len(f.trees[i].nodes)
	}
	k := &Kernel{
		nTrees:    len(f.trees),
		nFeatures: f.nFeatures,
		workers:   f.cfg.Workers,
		feature:   make([]int32, total),
		thresh:    make([]float64, total),
		left:      make([]int32, total),
		right:     make([]int32, total),
		value:     make([]float64, total),
		meta:      make([]int64, total),
		roots:     make([]int32, len(f.trees)),
		depths:    make([]int32, len(f.trees)),
	}
	base := 0
	for ti := range f.trees {
		k.roots[ti] = int32(base)
		k.depths[ti] = int32(nodeDepth(f.trees[ti].nodes, 0))
		for ni, n := range f.trees[ti].nodes {
			j := base + ni
			k.value[j] = n.value
			if n.left == -1 {
				// Leaves self-loop with a NaN threshold: x <= NaN is
				// false for every x (including +-Inf and NaN), so the
				// batch walk's compare never fires, its steering word
				// sends the cursor back to itself, and no leaf test is
				// needed at all. The scalar walk still stops on
				// feature == -1.
				k.feature[j] = -1
				k.thresh[j] = math.NaN()
				k.left[j] = int32(j)
				k.right[j] = int32(j)
				k.meta[j] = int64(j) << 32 // feature slot 0: any in-range column
				continue
			}
			if n.left != ni+1 {
				// The batch walk derives the left child as i+1 instead of
				// loading it; the builder's arena order (parent, left
				// subtree, right subtree) guarantees the adjacency.
				panic("forest: tree arena violates left-child adjacency")
			}
			k.feature[j] = int32(n.feature)
			k.thresh[j] = n.thresh
			k.left[j] = int32(base + n.left)
			k.right[j] = int32(base + n.right)
			k.meta[j] = int64(base+n.right)<<32 | int64(uint32(n.feature))
		}
		base += len(f.trees[ti].nodes)
	}
	return k
}

// nodeDepth returns the edge depth of the subtree rooted at i: 0 for a
// leaf. Tree depth is bounded by Config.MaxDepth, so recursion is safe.
func nodeDepth(nodes []node, i int) int {
	n := nodes[i]
	if n.left == -1 {
		return 0
	}
	l := nodeDepth(nodes, n.left)
	r := nodeDepth(nodes, n.right)
	if r > l {
		l = r
	}
	return l + 1
}

// NumFeatures returns the feature dimensionality the source forest was
// trained on.
func (k *Kernel) NumFeatures() int { return k.nFeatures }

// walk traverses one tree from node i for the query row x and returns
// its leaf prediction.
//
//acclaim:zeroalloc
func (k *Kernel) walk(i int, x []float64) float64 {
	feat, thresh := k.feature, k.thresh
	left, right := k.left, k.right
	for {
		f := feat[i]
		if f < 0 {
			return k.value[i]
		}
		if x[f] <= thresh[i] {
			i = int(left[i])
		} else {
			i = int(right[i])
		}
	}
}

// walkLevels advances every query of the tile through tree t
// level-synchronously: idx holds one node cursor per query, and each
// pass over the tile descends every cursor by one level, for the
// tree's compiled depth. Scalar traversal is bound by a dependent-load
// chain and a 50/50 descent branch; here the tile's loads within one
// level are all independent (blockQ load chains in flight) and the
// descent is a branchless conditional move over the packed steering
// word — the left child is the arena-adjacent i+1 (no left[] load),
// and a leaf's self-loop steering with NaN threshold parks finished
// queries in place with no leaf test at all. The <= compare keeps the
// reference path's NaN polarity (NaN descends right). Each cursor
// lands on exactly the leaf its scalar walk reaches.
//
//acclaim:zeroalloc
func (k *Kernel) walkLevels(t int, x []float64, q0, nq int, idx []int32) {
	meta, thresh := k.meta, k.thresh
	root := k.roots[t]
	idx = idx[:nq]
	for q := range idx {
		idx[q] = root
	}
	nf := k.nFeatures
	for d := int32(0); d < k.depths[t]; d++ {
		base := q0 * nf
		for q := range idx {
			i := int(idx[q])
			m := meta[i]
			nxt := int(m >> 32) // right child (leaf: self)
			if x[base+int(int32(m))] <= thresh[i] {
				nxt = i + 1 // left child by arena adjacency (never chosen for leaves: thresh is NaN)
			}
			idx[q] = int32(nxt)
			base += nf
		}
	}
}

// Predict returns the ensemble mean prediction for x. It panics if x
// has the wrong dimensionality.
//
//acclaim:zeroalloc
func (k *Kernel) Predict(x []float64) float64 {
	k.check(x)
	var s float64
	for t := 0; t < k.nTrees; t++ {
		s += k.walk(int(k.roots[t]), x)
	}
	return s / float64(k.nTrees)
}

// PredictFlat fills out[i] with the ensemble mean prediction for row i
// of the row-major flat matrix x (len(out) rows x NumFeatures
// columns). It is the zero-allocation batch entry point: callers own
// both buffers and the kernel's scratch is pooled.
func (k *Kernel) PredictFlat(x, out []float64) {
	k.checkFlat(x, len(out))
	k.dispatch(x, out, nil, len(out), false)
}

// ScoreFlat is the fused scoring kernel: one streaming pass fills
// mean[i] with the ensemble mean and vari[i] with the jackknife
// variance for row i of the row-major flat matrix x. mean may be nil
// when only variances are wanted (the active-learning sweep).
func (k *Kernel) ScoreFlat(x, mean, vari []float64) {
	if mean != nil && len(mean) != len(vari) {
		panic(fmt.Sprintf("forest: fused score with %d mean slots but %d variance slots", len(mean), len(vari)))
	}
	k.checkFlat(x, len(vari))
	k.dispatch(x, mean, vari, len(vari), true)
}

// dispatch fans query blocks across the worker pool. Each block's
// outputs depend only on its own rows, so results are identical for
// every worker count. The serial path (Workers 1, or a single block)
// runs inline and allocation-free; the parallel path pays O(workers)
// goroutine startup per call.
func (k *Kernel) dispatch(x, mean, vari []float64, rows int, fused bool) {
	nb := (rows + blockQ - 1) / blockQ
	w := k.workersFor(nb)
	if w == 1 {
		s := k.getScratch()
		for b := 0; b < nb; b++ {
			k.runBlock(s, x, b, rows, mean, vari, fused)
		}
		k.pool.Put(s)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := k.getScratch()
			defer k.pool.Put(s)
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				k.runBlock(s, x, b, rows, mean, vari, fused)
			}
		}()
	}
	wg.Wait()
}

// runBlock scores one query tile.
func (k *Kernel) runBlock(s *kernelScratch, x []float64, b, rows int, mean, vari []float64, fused bool) {
	q0 := b * blockQ
	nq := rows - q0
	if nq > blockQ {
		nq = blockQ
	}
	if fused {
		k.scoreBlock(s, x, q0, nq, mean, vari)
	} else {
		k.predictBlock(s, x, q0, nq, mean)
	}
}

// predictBlock fills out[q0:q0+nq] with ensemble means for the tile.
// Per-query sums accumulate in tree order, so the result repeats
// the reference walk's float arithmetic exactly.
//
//acclaim:zeroalloc
func (k *Kernel) predictBlock(s *kernelScratch, x []float64, q0, nq int, out []float64) {
	nt := k.nTrees
	sums := s.sums[:nq]
	for q := range sums {
		sums[q] = 0
	}
	idx := s.idx[:nq]
	for t := 0; t < nt; t++ {
		k.walkLevels(t, x, q0, nq, idx)
		for q := 0; q < nq; q++ {
			sums[q] += k.value[idx[q]]
		}
	}
	for q := 0; q < nq; q++ {
		out[q0+q] = sums[q] / float64(nt)
	}
}

// scoreBlock is the fused mean + jackknife tile kernel. Pass one walks
// every tree over the block, filling the tree-major prediction tile
// and per-query sums; pass two streams the tile again to accumulate
// the jackknife deviations. Both passes keep t ascending per query, so
// every float operation matches the reference loop of jackknifeVariance
// (oracle_test.go) bit for bit.
//
//acclaim:zeroalloc
func (k *Kernel) scoreBlock(s *kernelScratch, x []float64, q0, nq int, mean, vari []float64) {
	nt := k.nTrees
	sums := s.sums[:nq]
	for q := range sums {
		sums[q] = 0
	}
	preds := s.preds
	idx := s.idx[:nq]
	for t := 0; t < nt; t++ {
		k.walkLevels(t, x, q0, nq, idx)
		row := preds[t*blockQ : t*blockQ+nq]
		for q := 0; q < nq; q++ {
			v := k.value[idx[q]]
			row[q] = v
			sums[q] += v
		}
	}
	if nt < 2 {
		// Degenerate ensemble: a single prediction carries no spread
		// (jackknifeVariance in oracle_test.go returns 0 for n < 2).
		for q := 0; q < nq; q++ {
			if mean != nil {
				mean[q0+q] = sums[q] / float64(nt)
			}
			vari[q0+q] = 0
		}
		return
	}
	xps := s.xps[:nq]
	acc := s.acc[:nq]
	n := float64(nt)
	nm1 := float64(nt - 1)
	for q := 0; q < nq; q++ {
		xps[q] = sums[q] / n
		acc[q] = 0
	}
	for t := 0; t < nt; t++ {
		row := preds[t*blockQ : t*blockQ+nq]
		for q := 0; q < nq; q++ {
			xi := (sums[q] - row[q]) / nm1
			d := xps[q] - xi
			acc[q] += d * d
		}
	}
	for q := 0; q < nq; q++ {
		if mean != nil {
			mean[q0+q] = xps[q]
		}
		vari[q0+q] = acc[q] / nm1
	}
}

// getScratch returns pooled tile buffers, allocating only on pool
// misses (first use per concurrent worker).
func (k *Kernel) getScratch() *kernelScratch {
	if s, ok := k.pool.Get().(*kernelScratch); ok {
		return s
	}
	return &kernelScratch{
		preds: make([]float64, k.nTrees*blockQ),
		sums:  make([]float64, blockQ),
		xps:   make([]float64, blockQ),
		acc:   make([]float64, blockQ),
		idx:   make([]int32, blockQ),
	}
}

// workersFor resolves the pool size for n blocks, mirroring
// Config.workers.
func (k *Kernel) workersFor(n int) int {
	w := k.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// dimPanicFormat is the dimensionality-mismatch panic of a wrong-width
// query row, shared with the reference walk so both report one message.
const dimPanicFormat = "forest: predicting with %d features, trained on %d"

// check panics for a wrong-width query row.
func (k *Kernel) check(x []float64) {
	if len(x) != k.nFeatures {
		panic(fmt.Sprintf(dimPanicFormat, len(x), k.nFeatures))
	}
}

// checkFlat validates a flat row-major batch against the expected row
// count.
func (k *Kernel) checkFlat(x []float64, rows int) {
	if len(x) != rows*k.nFeatures {
		panic(fmt.Sprintf("forest: flat batch has %d values, want %d rows x %d features", len(x), rows, k.nFeatures))
	}
}
