// Compiled forest inference: the Kernel that Forest.Compile returns is
// the only scorer of a forest, a structure-of-arrays walk over the
// forest's packed node arrays. Its flat batch entry points are the
// scoring hot path of every autotuner round (the jackknife sweep over
// the candidate pool, Section IV-A) and of the rule-extraction and
// evaluation sweeps.
//
// Layout. A trained forest is stored once, in the layout the kernel
// walks: two per-node arrays in tree order (the packed type) — the
// steering word meta[] = right-child offset << 8 | internal << 7 |
// feature, and val[], an internal node's split threshold or a leaf's
// prediction — plus roots[] / depths[] per tree. That is 12 bytes a
// node. There is no per-node struct, no per-tree slice header and no
// separate left, right or feature array: the left child is always i+1
// (trees are laid out parent, left subtree, right subtree), and the
// right child and the feature are both in the steering word, so a
// descent step loads one 4-byte word and one 8-byte value. The right
// child is an offset from its parent, so a tree can be copied to any
// position unchanged. Internal-node means are never read, so none are
// stored. A leaf is the zero word: offset 0 and internal bit 0 make
// both of the batch walk's targets the leaf itself, whichever way its
// compare goes, so the walk needs no leaf test. TrainMatrix writes
// these arrays once; Compile wraps them in a Kernel without copying.
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

	packed         // node arrays, shared read-only with the source Forest
	roots  []int32 // per-tree root offset into the node arrays
	depths []int32 // per-tree depth, bounds the level-synchronous batch walk

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

// packed is node storage in the kernel's layout (see the file
// comment).
type packed struct {
	// meta is each node's steering word: the right child's offset from
	// the node << offsetShift | internalBit | feature index. A leaf's
	// word is 0.
	meta []uint32
	val  []float64 // internal node: split threshold; leaf: prediction
}

// The steering word's fields. TrainMatrix rejects a forest whose
// features or right-child offsets would not fit (see checkLayout).
const (
	featureMask = 1<<7 - 1    // low 7 bits: the split feature
	internalBit = 1 << 7      // set on every internal node, clear on leaves
	offsetShift = 8           // high 24 bits: right child - node index
	maxOffset   = 1<<24 - 1   // largest right-child offset a word holds
	maxColumns  = featureMask // most feature columns TrainMatrix accepts
)

// steer is the steering word of an internal node splitting on feature
// feat whose right child lies off nodes after it.
func steer(off, feat int) uint32 {
	return uint32(off)<<offsetShift | internalBit | uint32(feat)
}

// Compile returns the forest's inference kernel. The kernel reads the
// forest's node arrays in place — both are immutable — and inherits its
// Workers setting for batch fan-out.
func (f *Forest) Compile() *Kernel {
	return &Kernel{
		nTrees:    len(f.roots),
		nFeatures: f.nFeatures,
		workers:   f.cfg.Workers,
		packed:    f.packed,
		roots:     f.roots,
		depths:    f.depths,
	}
}

// NumFeatures returns the feature dimensionality the source forest was
// trained on.
func (k *Kernel) NumFeatures() int { return k.nFeatures }

// walk traverses one tree from node i for the query row x and returns
// its leaf prediction. A zero steering word is a leaf; otherwise the
// walk goes to i+1 when x[feature] <= threshold and to the right child
// else (NaN descends right).
//
//acclaim:zeroalloc
func (k *Kernel) walk(i int, x []float64) float64 {
	meta, val := k.meta, k.val
	for {
		m := meta[i]
		if m == 0 {
			return val[i]
		}
		if x[m&featureMask] <= val[i] {
			i++
		} else {
			i += int(m >> offsetShift)
		}
	}
}

// walkLevels advances every query of the tile through tree t
// level-synchronously: idx holds one node cursor per query, and each
// pass over the tile descends every cursor by one level, for the
// tree's compiled depth. Scalar traversal is bound by a dependent-load
// chain and a 50/50 descent branch; here the tile's loads within one
// level are all independent (blockQ load chains in flight) and the
// descent is a branchless conditional move between two offsets taken
// from the steering word: the right child's, and the internal bit as
// the left child's (the adjacent i+1, no load at all). A leaf's zero
// word makes both offsets 0, so finished queries stay parked whatever
// their compare against the leaf's value says, with no leaf test. The
// <= compare keeps the reference path's NaN polarity (NaN descends
// right). Each cursor lands on exactly the leaf its scalar walk
// reaches. The per-level pass is its own function so that its loop
// keeps every value in a register.
//
//acclaim:zeroalloc
func (k *Kernel) walkLevels(t int, x []float64, q0, nq int, idx []int32) {
	root := k.roots[t]
	idx = idx[:nq]
	for q := range idx {
		idx[q] = root
	}
	x = x[q0*k.nFeatures:]
	for d := k.depths[t]; d > 0; d-- {
		descend(k.meta, k.val, x, k.nFeatures, idx)
	}
}

// descend moves each cursor in idx one level down, query q reading its
// row at x[q*nf:]. The queries are independent, so walking them last
// to first, which frees the register a row count would hold, changes
// no result.
//
//acclaim:zeroalloc
func descend(meta []uint32, val, x []float64, nf int, idx []int32) {
	val = val[:len(meta)]
	base := len(idx) * nf
	for q := len(idx) - 1; q >= 0; q-- {
		base -= nf
		i := int(idx[q])
		m := meta[i]
		step := m >> offsetShift // to the right child (leaf: 0)
		left := m >> 7 & 1       // to the left child i+1 (leaf: 0)
		if x[base+int(m&featureMask)] <= val[i] {
			step = left
		}
		idx[q] = int32(i + int(step))
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
			sums[q] += k.val[idx[q]]
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
			v := k.val[idx[q]]
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
