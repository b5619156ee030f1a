// Package experiments reproduces every figure of the ACCLAiM paper's
// evaluation. Each FigNN function regenerates the corresponding
// figure's data series from the simulated testbed; the returned result
// types render the same rows/series the paper plots. cmd/experiments
// and the repository-root benchmarks drive these functions.
//
// The quantitative targets are shapes, not absolute numbers (the
// substrate is a simulator, not Theta): who wins, by roughly what
// factor, and where crossovers fall. EXPERIMENTS.md records
// paper-vs-measured for every figure.
package experiments

import (
	"math/rand"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
)

// Lab is the shared simulated testbed: the paper's Figure 1(a)
// methodology. It owns the replay dataset (exhaustive P2 grid plus the
// Section III-B non-P2 test sets) and a live runner for configurations
// outside the table. The dataset is only read after NewLab returns: a
// configuration outside it is simulated each time it is asked for, so
// the table a figure reads does not depend on which figures ran before.
type Lab struct {
	Space      featspace.Space
	DS         *dataset.Dataset
	NonP2Nodes []featspace.Point // "Non-P2 Nodes" test set (Figure 5)
	NonP2Msgs  []featspace.Point // "Non-P2 Message Size" test set
	Alloc      cluster.Allocation
	Runner     *benchmark.Runner
	Seed       int64
}

// SimSpace returns the default simulated-experiment grid, mirroring the
// paper's precollected dataset bounds (64 nodes, message sizes up to
// 1 MiB) with processes-per-node capped at 8 to keep simulator runs
// tractable (the paper's trends are insensitive to the cap; see
// DESIGN.md).
func SimSpace() featspace.Space { return featspace.P2Grid(64, 8, 8, 1<<20) }

// TinySpace returns a small grid for unit tests.
func TinySpace() featspace.Space {
	return featspace.Space{
		Nodes: []int{2, 4, 8, 16},
		PPNs:  []int{1, 2},
		Msgs:  []int{8, 128, 2048, 32768, 1 << 19},
	}
}

// NewLab builds a testbed over the grid: it collects the exhaustive
// replay dataset including both non-P2 test sets. Collection
// parallelises across CPU cores; the resulting dataset is deterministic
// for a given seed.
func NewLab(space featspace.Space, seed int64) (*Lab, error) {
	alloc := cluster.TopologyTwoPairs()
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc,
		benchmark.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 17))
	lab := &Lab{
		Space:      space,
		NonP2Nodes: dataset.NonP2NodesPoints(rng, space),
		NonP2Msgs:  dataset.NonP2MsgPoints(rng, space),
		Alloc:      alloc,
		Runner:     runner,
		Seed:       seed,
	}
	pts := append(append(space.Points(), lab.NonP2Nodes...), lab.NonP2Msgs...)
	ds, err := dataset.Collect(runner, pts, dataset.CollectOptions{})
	if err != nil {
		return nil, err
	}
	lab.DS = ds
	return lab, nil
}

// Backend returns the default experiment backend: replay with live
// fallback for configurations outside the precollected table (ACCLAiM's
// randomly drawn non-P2 message sizes).
func (l *Lab) Backend() autotune.WaveBackend {
	return &dataset.Replay{DS: l.DS, Alloc: l.Alloc, Live: l.Runner}
}

// Eval returns an average-slowdown evaluator over the given points.
func (l *Lab) Eval(pts []featspace.Point) func(coll.Collective, autotune.Selector) (float64, error) {
	return func(c coll.Collective, sel autotune.Selector) (float64, error) {
		return autotune.EvalSlowdown(l.DS, c, pts, sel)
	}
}

// EvalFor returns a single-collective evaluator closure.
func (l *Lab) EvalFor(c coll.Collective, pts []featspace.Point) func(autotune.Selector) (float64, error) {
	return func(sel autotune.Selector) (float64, error) {
		return autotune.EvalSlowdown(l.DS, c, pts, sel)
	}
}
