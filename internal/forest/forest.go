// Package forest is a from-scratch random-forest regressor — the model
// family ACCLAiM uses (the paper uses scikit-learn's
// RandomForestRegressor; Section V). It provides CART regression trees
// with variance-reduction splits, bootstrap bagging, optional feature
// subsampling, and the jackknife uncertainty estimate over the ensemble
// (Wager, Hastie & Efron), which is the signal ACCLAiM's active
// learning uses to pick training points.
//
// There is one path per operation. TrainMatrix fits a forest on a flat
// featspace.Matrix with the histogram trainer (trainer.go) and stores
// it once, in the packed node layout that Forest.Compile's Kernel —
// the scorer every sweep goes through — reads in place (compiled.go).
// The reference tree builder and pointer walk they replaced live in
// oracle_test.go as differential oracles.
//
// Training and batch scoring run on a bounded worker pool
// (Config.Workers). The per-tree RNG state is drawn from the master
// stream before any goroutine starts, so the trained forest is
// bit-identical for every worker count — see DESIGN.md, "Concurrency
// model".
package forest

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"acclaim/internal/obs"
	"acclaim/internal/stats"
)

// Config holds the forest hyperparameters. Zero fields take defaults.
type Config struct {
	NTrees   int   // ensemble size (default 30)
	MaxDepth int   // maximum tree depth (default 14)
	MinLeaf  int   // minimum samples per leaf (default 1)
	MTry     int   // features considered per split (default: all)
	Seed     int64 // RNG seed for bootstrap and feature sampling

	// Workers bounds the goroutine pool used by TrainMatrix and by the
	// compiled Kernel's batch scoring. 0 means runtime.GOMAXPROCS(0);
	// 1 forces the serial path. The trained forest and all scores are
	// independent of this value.
	Workers int

	// Metrics, when non-nil, receives per-TrainMatrix observability (tree
	// fit timing, pool occupancy). Nil costs nothing.
	Metrics *Metrics
}

// Metrics are the forest's registry handles. Build with NewMetrics and
// share one instance across every Config that should report into the
// same registry.
type Metrics struct {
	Trains    *obs.Counter      // forest.trains_total: TrainMatrix calls
	Trees     *obs.Counter      // forest.trees_total: trees grown
	Workers   *obs.Gauge        // forest.train_workers: pool size of the last TrainMatrix
	TreeFitNs *obs.HDRHistogram // forest.tree_fit_ns: per-tree growth time
	TrainNs   *obs.HDRHistogram // forest.train_ns: whole-TrainMatrix wall time
	// PoolBusyNs accumulates summed per-tree growth time; divided by
	// train_ns x train_workers it yields worker-pool occupancy.
	PoolBusyNs *obs.Gauge // forest.pool_busy_ns
}

// NewMetrics registers the forest metric set on reg (nil reg gives
// all-nil, no-op handles).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Trains:     reg.Counter("forest.trains_total"),
		Trees:      reg.Counter("forest.trees_total"),
		Workers:    reg.Gauge("forest.train_workers"),
		TreeFitNs:  reg.Histogram("forest.tree_fit_ns"),
		TrainNs:    reg.Histogram("forest.train_ns"),
		PoolBusyNs: reg.Gauge("forest.pool_busy_ns"),
	}
}

func (c Config) withDefaults(nFeatures int) Config {
	if c.NTrees == 0 {
		c.NTrees = 30
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 14
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 1
	}
	if c.MTry == 0 || c.MTry > nFeatures {
		c.MTry = nFeatures
	}
	return c
}

// workers resolves the effective pool size for n independent work items.
func (c Config) workers(n int) int {
	w := c.Workers
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

// Forest is a trained random-forest regressor. It is immutable; score
// it through Compile. Its trees are stored once, in the packed layout
// the Kernel walks (compiled.go).
type Forest struct {
	cfg       Config
	nFeatures int

	packed         // every tree's nodes, tree after tree
	roots  []int32 // per-tree root offset into the node arrays
	depths []int32 // per-tree edge depth: 0 for a single leaf
}

// fitter grows one tree at a time. train instantiates one fitter per
// worker goroutine so scratch buffers are reused across the trees that
// worker grows.
type fitter interface {
	// fitTree appends one tree, grown from seed and the bootstrap
	// sample boot, to dst in the packed layout (node indices absolute
	// in dst, left child adjacent) and returns its edge depth.
	fitTree(seed int64, boot []int, dst *packed) (depth int)
}

// grownTree locates one grown tree: nodes [start, end) of its
// worker's arena.
type grownTree struct {
	arena             *packed
	start, end, depth int
}

// reserve makes room in arena a for one more tree of up to maxNodes
// nodes, so growing the tree never reallocates. It at least doubles
// the capacity when it must grow, which bounds the copies it leaves
// behind at one arena's worth; node indices are offsets into the
// arena, so they survive the move.
func reserve(a *packed, maxNodes int) {
	if cap(a.meta)-len(a.meta) >= maxNodes {
		return
	}
	n := max(2*cap(a.meta), len(a.meta)+maxNodes)
	a.meta = append(make([]int64, 0, n), a.meta...)
	a.thresh = append(make([]float64, 0, n), a.thresh...)
	a.value = append(make([]float64, 0, n), a.value...)
}

// maxTreeNodes bounds the node count of one tree grown on a bootstrap
// of n samples: a split leaves at least MinLeaf samples on each side,
// depth caps a tree at 2^MaxDepth leaves, and a binary tree with L
// leaves has 2L-1 nodes.
func (c Config) maxTreeNodes(n int) int {
	leaves := max(1, n/c.MinLeaf)
	if c.MaxDepth < 30 {
		leaves = min(leaves, 1<<c.MaxDepth)
	}
	return 2*leaves - 1
}

// train is the training loop behind TrainMatrix and the test-only
// trainReference: cfg must already have defaults applied. It pre-draws
// every tree's random inputs serially from the master stream —
// O(NTrees·nSamples) cheap RNG calls, negligible next to tree growth —
// which is what makes parallel training reproduce the serial forest
// bit for bit at every Workers count. Each worker appends its trees to
// its own arena; the arenas are then concatenated once, in tree order,
// into the forest's node arrays.
func train(cfg Config, nSamples, nFeatures int, y []float64, newFitter func() fitter) *Forest {
	var master stats.Source
	master.Seed(cfg.Seed)
	rng := rand.New(&master)
	boots := make([][]int, cfg.NTrees)
	seeds := make([]int64, cfg.NTrees)
	flat := make([]int, cfg.NTrees*nSamples) // one allocation for all bootstraps
	for ti := range boots {
		idx := flat[ti*nSamples : (ti+1)*nSamples]
		for i := range idx {
			idx[i] = rng.Intn(nSamples)
		}
		boots[ti] = idx
		seeds[ti] = rng.Int63()
	}

	// Observability: per-tree growth time feeds a histogram and a
	// busy-time accumulator whose ratio to wall time is the pool's
	// occupancy. All of it is skipped (including the clock reads) when
	// Metrics is nil, keeping the uninstrumented path identical.
	met := cfg.Metrics
	var t0 int64
	if met != nil {
		t0 = obs.NowNs()
	}
	workers := cfg.workers(cfg.NTrees)
	arenas := make([]packed, workers)
	maxNodes := cfg.maxTreeNodes(nSamples)
	grown := make([]grownTree, cfg.NTrees)
	grow := func(b fitter, a *packed, ti int) {
		reserve(a, maxNodes)
		g := grownTree{arena: a, start: len(a.meta)}
		var s0 int64
		if met != nil {
			s0 = obs.NowNs()
		}
		g.depth = b.fitTree(seeds[ti], boots[ti], a)
		if met != nil {
			d := float64(obs.NowNs() - s0)
			met.TreeFitNs.Observe(d)
			met.PoolBusyNs.Add(d)
		}
		g.end = len(a.meta)
		grown[ti] = g
	}

	if workers == 1 {
		b := newFitter()
		for ti := range grown {
			grow(b, &arenas[0], ti)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range arenas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One fitter per worker: its scratch buffers are reused
				// across every tree the worker grows.
				b := newFitter()
				for {
					ti := int(next.Add(1)) - 1
					if ti >= cfg.NTrees {
						return
					}
					grow(b, &arenas[w], ti)
				}
			}()
		}
		wg.Wait()
	}
	f := &Forest{cfg: cfg, nFeatures: nFeatures}
	f.concat(grown)
	trainDone(met, t0, cfg.NTrees, workers)
	return f
}

// concat lays the grown trees out in tree order in right-sized node
// arrays. Moving a tree from arena offset start to forest offset base
// shifts every index in its steering words — right children and leaf
// self-references alike, all in the high half — by base-start; the
// feature in the low half is untouched.
func (f *Forest) concat(grown []grownTree) {
	total := 0
	for _, g := range grown {
		total += g.end - g.start
	}
	f.packed = packed{
		meta:   make([]int64, total),
		thresh: make([]float64, total),
		value:  make([]float64, total),
	}
	f.roots = make([]int32, len(grown))
	f.depths = make([]int32, len(grown))
	base := 0
	for ti, g := range grown {
		a := g.arena
		shift := int64(base-g.start) << 32
		for j, m := range a.meta[g.start:g.end] {
			f.meta[base+j] = m + shift
		}
		copy(f.thresh[base:], a.thresh[g.start:g.end])
		copy(f.value[base:], a.value[g.start:g.end])
		f.roots[ti] = int32(base)
		f.depths[ti] = int32(g.depth)
		base += g.end - g.start
	}
}

// trainDone records the end-of-training metrics. t0 is the obs.NowNs
// reading taken when training started.
func trainDone(met *Metrics, t0 int64, trees, workers int) {
	if met == nil {
		return
	}
	met.Trains.Inc()
	met.Trees.Add(uint64(trees))
	met.Workers.Set(float64(workers))
	met.TrainNs.Observe(float64(obs.NowNs() - t0))
}

// fillPerm overwrites perm with the permutation rand.Perm(len(perm))
// would produce from the same stream (same Intn call sequence, no
// allocation) and returns its first mtry entries. Reference builder and
// compiled trainer share it so both consume the per-tree RNG stream
// identically — a precondition of their bit-identical splits.
func fillPerm(rng *rand.Rand, perm []int, mtry int) []int {
	perm[0] = 0 // scratch may be dirty; rand.Perm starts from a zeroed slice
	for i := 1; i < len(perm); i++ {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	return perm[:mtry]
}

// NumFeatures returns the feature dimensionality the forest was trained
// on.
func (f *Forest) NumFeatures() int { return f.nFeatures }
