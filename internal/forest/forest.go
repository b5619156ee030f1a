// Package forest is a from-scratch random-forest regressor — the model
// family ACCLAiM uses (the paper uses scikit-learn's
// RandomForestRegressor; Section V). It provides CART regression trees
// with variance-reduction splits, bootstrap bagging, optional feature
// subsampling, and the jackknife uncertainty estimate over the ensemble
// (Wager, Hastie & Efron), which is the signal ACCLAiM's active
// learning uses to pick training points.
//
// There is one path per operation. TrainMatrix fits a forest on a flat
// featspace.Matrix with the histogram trainer (trainer.go), and
// Forest.Compile lowers it to the Kernel every sweep scores through
// (compiled.go). The reference tree builder and pointer walk they
// replaced live in oracle_test.go as differential oracles.
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
	Trains    *obs.Counter   // forest.trains_total: TrainMatrix calls
	Trees     *obs.Counter   // forest.trees_total: trees grown
	Workers   *obs.Gauge     // forest.train_workers: pool size of the last TrainMatrix
	TreeFitNs *obs.Histogram // forest.tree_fit_ns: per-tree growth time
	TrainNs   *obs.Histogram // forest.train_ns: whole-TrainMatrix wall time
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

// node is one tree node in a flat arena. Leaves have left == -1.
type node struct {
	feature int
	thresh  float64
	left    int
	right   int
	value   float64
}

// tree is a CART regression tree.
type tree struct {
	nodes []node
}

// Forest is a trained random-forest regressor. It is immutable; score
// it through Compile.
type Forest struct {
	cfg       Config
	trees     []tree
	nFeatures int
}

// fitter grows one tree at a time. train instantiates one fitter per
// worker goroutine so scratch buffers are reused across the trees that
// worker grows; the returned arena is retained by the Forest.
type fitter interface {
	fitTree(seed int64, boot []int) []node
}

// train is the training loop behind TrainMatrix and the test-only
// trainReference: cfg must already have defaults applied. It pre-draws
// every tree's random inputs serially from the master stream —
// O(NTrees·nSamples) cheap RNG calls, negligible next to tree growth —
// which is what makes parallel training reproduce the serial forest
// bit for bit at every Workers count.
func train(cfg Config, nSamples, nFeatures int, y []float64, newFitter func() fitter) *Forest {
	f := &Forest{cfg: cfg, trees: make([]tree, cfg.NTrees), nFeatures: nFeatures}

	rng := rand.New(rand.NewSource(cfg.Seed))
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
	grow := func(b fitter, ti int) {
		if met == nil {
			f.trees[ti] = tree{nodes: b.fitTree(seeds[ti], boots[ti])}
			return
		}
		s0 := obs.NowNs()
		f.trees[ti] = tree{nodes: b.fitTree(seeds[ti], boots[ti])}
		d := float64(obs.NowNs() - s0)
		met.TreeFitNs.Observe(d)
		met.PoolBusyNs.Add(d)
	}

	workers := cfg.workers(cfg.NTrees)
	if workers == 1 {
		b := newFitter()
		for ti := range f.trees {
			grow(b, ti)
		}
		trainDone(met, t0, cfg.NTrees, 1)
		return f
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
				grow(b, ti)
			}
		}()
	}
	wg.Wait()
	trainDone(met, t0, cfg.NTrees, workers)
	return f
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

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }
