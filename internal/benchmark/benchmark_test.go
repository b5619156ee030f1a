package benchmark

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
	"acclaim/internal/sched"
	"acclaim/internal/traces"
)

func testRunner(t testing.TB, alloc cluster.Allocation) *Runner {
	t.Helper()
	r, err := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func spec(c coll.Collective, alg string, nodes, ppn, msg int) Spec {
	return Spec{Coll: c, Alg: alg, Point: featspace.Point{Nodes: nodes, PPN: ppn, MsgBytes: msg}}
}

func TestRunBasics(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	m, err := r.Run(spec(coll.Bcast, "binomial", 8, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanTime <= 0 {
		t.Errorf("MeanTime = %v", m.MeanTime)
	}
	// Wall time covers warmup + iters, so it must exceed iters * mean.
	if m.WallTime <= m.MeanTime*float64(r.Config.Iters)*0.9 {
		t.Errorf("WallTime %v inconsistent with MeanTime %v", m.WallTime, m.MeanTime)
	}
}

func TestRunDeterministic(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	s := spec(coll.Allreduce, "recursive_doubling", 4, 2, 1024)
	m1, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if m1.MeanTime != m2.MeanTime || m1.WallTime != m2.WallTime {
		t.Error("repeated measurement differs")
	}
}

func TestRunSeedChangesNoise(t *testing.T) {
	alloc := cluster.TopologyTwoPairs()
	r1, _ := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{Seed: 1})
	r2, _ := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{Seed: 2})
	s := spec(coll.Bcast, "binomial", 4, 1, 512)
	m1, err := r1.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r2.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if m1.MeanTime == m2.MeanTime {
		t.Error("different seeds produced identical noise")
	}
}

func TestRunErrors(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	if _, err := r.Run(spec(coll.Bcast, "binomial", 1000, 1, 8)); err == nil {
		t.Error("oversize benchmark should fail")
	}
	if _, err := r.Run(spec(coll.Bcast, "missing", 2, 1, 8)); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestRunSequentialSumsWallTime(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	specs := []Spec{
		spec(coll.Bcast, "binomial", 4, 1, 512),
		spec(coll.Reduce, "binomial", 8, 1, 512),
	}
	ms, total, err := r.RunSequential(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	want := ms[0].WallTime + ms[1].WallTime
	if total != want {
		t.Errorf("total = %v, want %v", total, want)
	}
}

func TestRunParallelFasterThanSequential(t *testing.T) {
	// On the max-parallel topology, several small benchmarks run
	// simultaneously: machine time must drop below sequential.
	r := testRunner(t, cluster.TopologyMaxParallel())
	var specs []Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, spec(coll.Bcast, "binomial", 8, 1, 65536))
	}
	_, seq, err := r.RunSequential(specs)
	if err != nil {
		t.Fatal(err)
	}
	ms, par, waves, err := r.RunParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(specs) {
		t.Fatalf("parallel measurements = %d", len(ms))
	}
	if par >= seq {
		t.Errorf("parallel %v not faster than sequential %v", par, seq)
	}
	if len(waves) == 0 || waves[0] < 2 {
		t.Errorf("expected multi-benchmark waves, got %v", waves)
	}
}

func TestRunParallelSingleRackMatchesSequentialShape(t *testing.T) {
	// One rack: every wave holds one benchmark; machine time ~= sequential.
	r := testRunner(t, cluster.TopologySingleRack())
	var specs []Spec
	for i := 0; i < 3; i++ {
		specs = append(specs, spec(coll.Bcast, "binomial", 4, 1, 4096))
	}
	_, seq, err := r.RunSequential(specs)
	if err != nil {
		t.Fatal(err)
	}
	_, par, waves, err := r.RunParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waves {
		if w != 1 {
			t.Errorf("single-rack wave parallelism = %d, want 1", w)
		}
	}
	if par != seq {
		t.Errorf("single-rack parallel time %v != sequential %v", par, seq)
	}
}

// serialOracle is RunParallel without the pool: the same plan, then
// baseTime + measure per placement in wave order, one after another.
func serialOracle(t *testing.T, r *Runner, specs []Spec) ([]Measurement, float64, []int) {
	t.Helper()
	reqs := make([]sched.Request, len(specs))
	for i, s := range specs {
		reqs[i] = sched.Request{ID: i, Nodes: s.Point.Nodes, Priority: float64(len(specs) - i)}
	}
	waves, err := sched.PlanAll(r.Alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var out []Measurement
	var total float64
	for _, wave := range waves {
		var waveTime float64
		for _, p := range wave {
			base, err := r.baseTime(nil, specs[p.ID], p.NodeIdx)
			if err != nil {
				t.Fatal(err)
			}
			m := r.measure(specs[p.ID], base)
			out = append(out, m)
			if m.WallTime > waveTime {
				waveTime = m.WallTime
			}
		}
		total += waveTime
	}
	return out, total, sched.Parallelism(waves)
}

// TestRunParallelBitIdentical pins the pool's determinism: on the
// max-parallel topology, where waves hold several placements of mixed
// sizes, RunParallel equals the serial oracle bit for bit at every
// GOMAXPROCS.
func TestRunParallelBitIdentical(t *testing.T) {
	r := testRunner(t, cluster.TopologyMaxParallel())
	var specs []Spec
	for i, nodes := range []int{16, 2, 8, 4, 2, 16, 8, 32, 4, 2, 8} {
		c := coll.Collectives()[i%len(coll.Collectives())]
		algs := coll.AlgorithmNames(c)
		specs = append(specs, spec(c, algs[i%len(algs)], nodes, 1+i%2, 64<<(i%6)))
	}
	want, wantTotal, wantPar := serialOracle(t, r, specs)
	if slices.Max(wantPar) < 2 {
		t.Fatalf("parallelism %v: no wave holds several placements", wantPar)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, total, par, err := r.RunParallel(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d measurements, want %d", procs, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Spec != w.Spec || math.Float64bits(g.MeanTime) != math.Float64bits(w.MeanTime) ||
				math.Float64bits(g.WallTime) != math.Float64bits(w.WallTime) {
				t.Errorf("GOMAXPROCS=%d slot %d: %+v, want %+v", procs, i, g, w)
			}
		}
		if math.Float64bits(total) != math.Float64bits(wantTotal) {
			t.Errorf("GOMAXPROCS=%d: total %v, want %v", procs, total, wantTotal)
		}
		if !slices.Equal(par, wantPar) {
			t.Errorf("GOMAXPROCS=%d: parallelism %v, want %v", procs, par, wantPar)
		}
	}
}

// TestRunParallelError pins the failure path: a batch with one
// unsimulatable spec returns that spec's error, and the pool's workers
// are gone when RunParallel returns.
func TestRunParallelError(t *testing.T) {
	r := testRunner(t, cluster.TopologyMaxParallel())
	var specs []Spec
	for i := 0; i < 12; i++ {
		specs = append(specs, spec(coll.Bcast, "binomial", 4, 1, 512<<i))
	}
	specs[5].Alg = "missing"
	base := runtime.NumGoroutine()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ms, total, par, err := r.RunParallel(specs)
	if err == nil || !strings.Contains(err.Error(), `"missing"`) {
		t.Fatalf("err = %v, want the unknown-algorithm error", err)
	}
	if ms != nil || total != 0 || par != nil {
		t.Errorf("failed batch returned %d measurements, total %v, parallelism %v", len(ms), total, par)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed batch, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestRunParallelEmpty(t *testing.T) {
	r := testRunner(t, cluster.TopologySingleRack())
	ms, total, par, err := r.RunParallel(nil)
	if err != nil || len(ms) != 0 || total != 0 || len(par) != 0 {
		t.Errorf("empty batch: %d measurements, total %v, parallelism %v, err %v", len(ms), total, par, err)
	}
}

func TestNewRunnerValidation(t *testing.T) {
	alloc := cluster.TopologySingleRack()
	if _, err := NewRunner(netmodel.Params{}, netmodel.DefaultEnv(), alloc, Config{}); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := NewRunner(netmodel.DefaultParams(), netmodel.Env{}, alloc, Config{}); err == nil {
		t.Error("invalid env should fail")
	}
	if _, err := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), cluster.Allocation{}, Config{}); err == nil {
		t.Error("invalid allocation should fail")
	}
	r, err := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.Warmup != 2 || r.Config.Iters != 5 {
		t.Errorf("defaults not applied: %+v", r.Config)
	}
	if r.MaxNodes() != 64 {
		t.Errorf("MaxNodes = %d", r.MaxNodes())
	}
}

func TestSpecString(t *testing.T) {
	s := spec(coll.Bcast, "binomial", 2, 1, 8)
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// lastAlg is a selection source with a rule for bcast only (its last
// registered algorithm); every other collective falls back to the
// default heuristic.
type lastAlg struct{}

func (lastAlg) Lookup(c coll.Collective, nodes, ppn, msg int) (string, bool) {
	if c != coll.Bcast {
		return "", false
	}
	names := coll.AlgorithmNames(c)
	return names[len(names)-1], true
}

// TestReplayMatchesRunSelected: a replay on one engine prices every
// call site bit for bit as one-shot RunSelected calls do, under a
// source and under the defaults, and sums them in call order.
func TestReplayMatchesRunSelected(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	tr, err := traces.Synthesize("LAMMPS", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := tr.Calls[:40]
	for _, src := range []coll.AlgSource{nil, lastAlg{}} {
		var want float64
		for _, call := range calls {
			m, _, err := r.RunSelected(call.Coll, src, featspace.Point{Nodes: 8, PPN: 2, MsgBytes: call.MsgBytes})
			if err != nil {
				t.Fatal(err)
			}
			want += m.MeanTime * float64(call.Count)
		}
		got, err := r.Replay(calls, 8, 2, src)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("source %T: Replay = %v, one-shot RunSelected sum = %v", src, got, want)
		}
	}
	if _, err := r.Replay(calls, 1000, 1, nil); err == nil {
		t.Error("replay on more nodes than the allocation has succeeded")
	}
}
