package core

import (
	"math"
	"testing"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/netmodel"
)

func testSpace() featspace.Space {
	return featspace.Space{
		Nodes: []int{2, 4, 8, 16},
		PPNs:  []int{1, 2},
		Msgs:  []int{8, 128, 2048, 32768, 1 << 19},
	}
}

// testReplay collects a replay dataset over the P2 grid plus the non-P2
// message neighbourhood ACCLAiM may sample into.
func testReplay(t testing.TB) *dataset.Replay {
	t.Helper()
	r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(),
		cluster.TopologyTwoPairs(), benchmark.Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Collect(r, testSpace().Points(), dataset.CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &dataset.Replay{DS: ds, Alloc: cluster.TopologyTwoPairs()}
}

// liveBackend runs the simulator directly, so non-P2 mutations can be
// benchmarked without precollection.
func liveBackend(t testing.TB) autotune.LiveBackend {
	t.Helper()
	r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(),
		cluster.TopologyTwoPairs(), benchmark.Config{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	return autotune.LiveBackend{Runner: r}
}

func testConfig() Config {
	return Config{
		Space:  testSpace(),
		Forest: forest.Config{Seed: 1, NTrees: 30},
		Seed:   2,
	}
}

func TestTuneProducesWorkingModel(t *testing.T) {
	rp := testReplay(t)
	tuner := New(testConfig(), liveBackend(t))
	res, err := tuner.Tune(coll.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || len(res.Order) == 0 || len(res.Trace) == 0 {
		t.Fatal("incomplete result")
	}
	if res.Ledger.Collection <= 0 {
		t.Error("no collection time charged")
	}
	if res.Ledger.Testing != 0 {
		t.Error("ACCLAiM must not charge test-set time — that is its point")
	}
	sd, err := autotune.EvalSlowdown(rp.DS, coll.Bcast, testSpace().Points(), res)
	if err != nil {
		t.Fatal(err)
	}
	if sd > 1.15 {
		t.Errorf("final slowdown = %v", sd)
	}
}

func TestVarianceConvergence(t *testing.T) {
	tuner := New(testConfig(), liveBackend(t))
	res, err := tuner.Tune(coll.Reduce)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge within %d iterations", tuner.Config().MaxIterations)
	}
	// Cumulative variance must be tracked, and training must not stop
	// at the peak: with a space-covering seed the variance first rises
	// as active learning uncovers structure, then settles; convergence
	// must land below the peak.
	last := res.Trace[len(res.Trace)-1]
	peak := 0.0
	for _, tp := range res.Trace {
		if math.IsNaN(tp.CumVariance) {
			t.Fatal("trace lacks cumulative variance")
		}
		if tp.CumVariance > peak {
			peak = tp.CumVariance
		}
	}
	if last.CumVariance >= peak {
		t.Errorf("converged at the variance peak: last=%v peak=%v", last.CumVariance, peak)
	}
	// Convergence must have been declared by the variance window, which
	// requires Window+1 trailing samples with small deltas.
	if len(res.Trace) < tuner.Config().Window {
		t.Errorf("trace too short to have converged: %d", len(res.Trace))
	}
}

func TestNonP2ShareNearTwentyPercent(t *testing.T) {
	tuner := New(testConfig(), liveBackend(t))
	res, err := tuner.Tune(coll.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	share := res.NonP2Share()
	// Every 5th selection (after the 4 seed points) is non-P2: expect
	// roughly 20%, with slack for small sample counts.
	if share < 0.08 || share > 0.30 {
		t.Errorf("non-P2 share = %v, want ~0.2 (order length %d)", share, len(res.Order))
	}
	// And the non-P2 samples must be message-size mutations only.
	for _, s := range res.Order {
		if !featspace.IsP2(s.Candidate.Point.Nodes) {
			t.Errorf("node count mutated: %v", s.Candidate.Point)
		}
	}
}

func TestNoSurrogate一ModelOnly(t *testing.T) {
	// Structural check: the result's model is the unified single-forest
	// design (algorithm as a feature), not per-algorithm forests.
	tuner := New(testConfig(), liveBackend(t))
	res, err := tuner.Tune(coll.Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	// Predicting takes the algorithm index as a feature (a narrower
	// forest would panic on the wider row) and the prediction depends
	// on it.
	p := featspace.Point{Nodes: 4, PPN: 2, MsgBytes: 4096}
	times := map[float64]bool{}
	for ai := range coll.AlgorithmNames(coll.Allreduce) {
		times[res.Model.PredictTime(p, ai)] = true
	}
	if len(times) < 2 {
		t.Errorf("model predicts %d distinct times across algorithms, want the algorithm to be a feature", len(times))
	}
}

func TestParallelCheaperThanSequential(t *testing.T) {
	seqCfg := testConfig()
	seqCfg.Parallel = false
	parCfg := testConfig()
	parCfg.Parallel = true
	parCfg.BatchSize = 4

	// Use a max-parallel topology so waves actually overlap.
	mkBackend := func() autotune.LiveBackend {
		r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(),
			cluster.TopologyMaxParallel(), benchmark.Config{Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		return autotune.LiveBackend{Runner: r}
	}
	seqRes, err := New(seqCfg, mkBackend()).Tune(coll.Reduce)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := New(parCfg, mkBackend()).Tune(coll.Reduce)
	if err != nil {
		t.Fatal(err)
	}
	// Per-sample machine time must be cheaper with parallel waves.
	seqRate := seqRes.Ledger.Collection / float64(len(seqRes.Order))
	parRate := parRes.Ledger.Collection / float64(len(parRes.Order))
	if parRate >= seqRate {
		t.Errorf("parallel per-sample cost %v not below sequential %v", parRate, seqRate)
	}
	// Waves really held multiple benchmarks.
	multi := false
	for _, w := range parRes.Parallelism {
		if w > 1 {
			multi = true
		}
	}
	if !multi {
		t.Error("no multi-benchmark waves on max-parallel topology")
	}
}

func TestDeterministic(t *testing.T) {
	r1, err := New(testConfig(), liveBackend(t)).Tune(coll.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(testConfig(), liveBackend(t)).Tune(coll.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Order) != len(r2.Order) {
		t.Fatalf("order lengths differ: %d vs %d", len(r1.Order), len(r2.Order))
	}
	for i := range r1.Order {
		if r1.Order[i].Candidate != r2.Order[i].Candidate {
			t.Fatal("non-deterministic selection order")
		}
	}
	if r1.Ledger != r2.Ledger {
		t.Error("non-deterministic ledger")
	}
}

func TestTuneAllAndRules(t *testing.T) {
	tuner := New(testConfig(), liveBackend(t))
	results, err := tuner.TuneAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != coll.NumCollectives {
		t.Fatalf("results = %d collectives, want %d", len(results), coll.NumCollectives)
	}
	file, err := tuner.BuildRulesFile(results, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Tables) != coll.NumCollectives {
		t.Fatalf("tables = %d, want %d", len(file.Tables), coll.NumCollectives)
	}
	// Every table answers every query, including non-P2 ones.
	for _, c := range coll.Collectives() {
		tab := file.Tables[c.String()]
		for _, p := range []featspace.Point{
			{Nodes: 2, PPN: 1, MsgBytes: 8},
			{Nodes: 13, PPN: 2, MsgBytes: 24576},
			{Nodes: 1000, PPN: 64, MsgBytes: 1 << 30},
		} {
			alg, err := tab.Select(p.Nodes, p.PPN, p.MsgBytes)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if _, ok := coll.AlgIndex(c, alg); !ok {
				t.Fatalf("%v rule names unknown algorithm %q", c, alg)
			}
		}
	}
}

func TestEvaluatorTrace(t *testing.T) {
	rp := testReplay(t)
	cfg := testConfig()
	cfg.Evaluator = func(c coll.Collective, sel autotune.Selector) (float64, error) {
		return autotune.EvalSlowdown(rp.DS, c, testSpace().Points(), sel)
	}
	res, err := New(cfg, liveBackend(t)).Tune(coll.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Trace {
		if math.IsNaN(tp.Slowdown) {
			t.Fatal("evaluator did not populate slowdown")
		}
		if tp.Slowdown < 1 {
			t.Fatalf("slowdown %v < 1", tp.Slowdown)
		}
	}
}

func TestEmptySpaceFails(t *testing.T) {
	cfg := testConfig()
	cfg.Space = featspace.Space{}
	if _, err := New(cfg, liveBackend(t)).Tune(coll.Bcast); err == nil {
		t.Error("empty space should fail")
	}
}
