package exhaustive

import (
	"errors"
	"maps"
	"math"
	"strings"
	"testing"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
)

func testSetup(t *testing.T) (*dataset.Replay, featspace.Space) {
	t.Helper()
	space := featspace.Space{Nodes: []int{2, 4, 8}, PPNs: []int{1, 2}, Msgs: []int{8, 1024, 65536}}
	r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(),
		cluster.TopologyTwoPairs(), benchmark.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Collect(r, space.Points(), dataset.CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &dataset.Replay{DS: ds, Alloc: cluster.TopologyTwoPairs()}, space
}

func TestTuneIsExactOnScenarios(t *testing.T) {
	rp, space := testSetup(t)
	res, err := Tune(rp, coll.Bcast, space.Points(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive selections must be optimal: slowdown exactly 1.
	sd, err := autotune.EvalSlowdown(rp.DS, coll.Bcast, space.Points(), res)
	if err != nil {
		t.Fatal(err)
	}
	if sd != 1 {
		t.Errorf("exhaustive slowdown = %v, want exactly 1", sd)
	}
}

func TestTuneChargesFullCrossProduct(t *testing.T) {
	rp, space := testSetup(t)
	res, err := Tune(rp, coll.Reduce, space.Points(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, p := range space.Points() {
		for _, alg := range coll.AlgorithmNames(coll.Reduce) {
			m, err := rp.Measure(benchmark.Spec{Coll: coll.Reduce, Alg: alg, Point: p})
			if err != nil {
				t.Fatal(err)
			}
			want += m.WallTime
		}
	}
	if res.Ledger.Collection != want {
		t.Errorf("collection = %v, want %v (the whole cross product)", res.Ledger.Collection, want)
	}
}

func TestFallbackForUnseenScenarios(t *testing.T) {
	rp, space := testSetup(t)
	res, err := Tune(rp, coll.Bcast, space.Points(), func(featspace.Point) string { return "binomial" })
	if err != nil {
		t.Fatal(err)
	}
	unseen := featspace.Point{Nodes: 4, PPN: 2, MsgBytes: 12345}
	if got := res.Select(unseen); got != "binomial" {
		t.Errorf("fallback selection = %q", got)
	}
	// Without a fallback, it degrades to the first registered algorithm.
	res.Fallback = nil
	if got := res.Select(unseen); got != coll.AlgorithmNames(coll.Bcast)[0] {
		t.Errorf("no-fallback selection = %q", got)
	}
}

func TestTuneSkipsInfeasible(t *testing.T) {
	rp, _ := testSetup(t)
	pts := []featspace.Point{
		{Nodes: 2, PPN: 1, MsgBytes: 8},
		{Nodes: 9999, PPN: 1, MsgBytes: 8}, // beyond the allocation
		{Nodes: 1, PPN: 1, MsgBytes: 8},    // single rank
	}
	res, err := Tune(rp, coll.Bcast, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) != 1 {
		t.Errorf("tuned %d scenarios, want 1", len(res.Best))
	}
}

// measureEach is the oracle Tune must equal: one Measure per (scenario,
// algorithm), in that order, each wall time charged as it returns.
func measureEach(b autotune.Backend, c coll.Collective, scenarios []featspace.Point) (map[featspace.Point]string, float64, error) {
	best := make(map[featspace.Point]string)
	var charged float64
	for _, p := range scenarios {
		if !p.Valid() || p.Nodes > b.MaxNodes() {
			continue
		}
		bestAlg, bestT := "", 0.0
		for _, alg := range coll.AlgorithmNames(c) {
			m, err := b.Measure(benchmark.Spec{Coll: c, Alg: alg, Point: p})
			if err != nil {
				return nil, 0, err
			}
			charged += m.WallTime
			if bestAlg == "" || m.MeanTime < bestT {
				bestAlg, bestT = alg, m.MeanTime
			}
		}
		best[p] = bestAlg
	}
	return best, charged, nil
}

// waveCounter counts how Tune drives its backend.
type waveCounter struct {
	autotune.WaveBackend
	waves, singles int
}

func (b *waveCounter) Measure(s benchmark.Spec) (benchmark.Measurement, error) {
	b.singles++
	return b.WaveBackend.Measure(s)
}

func (b *waveCounter) MeasureWave(specs []benchmark.Spec) ([]benchmark.Measurement, float64, error) {
	b.waves++
	return b.WaveBackend.MeasureWave(specs)
}

// checkOracle requires Tune to send exactly one batch and to match the
// per-spec oracle in its winners and, bit for bit, in its charge.
func checkOracle(t *testing.T, b autotune.WaveBackend, c coll.Collective, pts []featspace.Point) *Result {
	t.Helper()
	wc := &waveCounter{WaveBackend: b}
	res, err := Tune(wc, c, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wc.waves != 1 || wc.singles != 0 {
		t.Errorf("%v: %d batches and %d single measurements, want one batch", c, wc.waves, wc.singles)
	}
	best, charged, err := measureEach(b, c, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(res.Best, best) {
		t.Errorf("%v: winners %v, oracle %v", c, res.Best, best)
	}
	if math.Float64bits(res.Ledger.Collection) != math.Float64bits(charged) {
		t.Errorf("%v: charged %v, oracle %v", c, res.Ledger.Collection, charged)
	}
	return res
}

func TestTuneMatchesOracleOnReplay(t *testing.T) {
	rp, space := testSetup(t)
	pts := space.Points()
	pts = append(pts, pts[4], // a duplicated scenario
		featspace.Point{Nodes: 9999, PPN: 1, MsgBytes: 8}, // beyond the allocation
		featspace.Point{Nodes: 1, PPN: 1, MsgBytes: 8})    // single rank
	for _, c := range coll.Collectives() {
		checkOracle(t, rp, c, pts)
	}
}

// TestTuneMatchesOracleLive runs cmd/acclaim's job cell shape on the
// live simulator: every scenario spans the whole allocation, so the
// batch's placements are the nodes a single Measure uses.
func TestTuneMatchesOracleLive(t *testing.T) {
	alloc, err := cluster.Contiguous(cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, benchmark.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var cell []featspace.Point
	for msg := 8; msg <= 1<<16; msg *= 4 {
		cell = append(cell, featspace.Point{Nodes: 8, PPN: 2, MsgBytes: msg})
	}
	cell = append(cell, cell[2], featspace.Point{Nodes: 16, PPN: 2, MsgBytes: 8})
	for _, c := range []coll.Collective{coll.Bcast, coll.Allreduce} {
		checkOracle(t, autotune.LiveBackend{Runner: r}, c, cell)
	}
}

func TestTuneTieGoesToRegistryOrder(t *testing.T) {
	algs := coll.AlgorithmNames(coll.Bcast)
	if len(algs) < 3 {
		t.Fatalf("bcast has %d algorithms, the tie needs three", len(algs))
	}
	p := featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 8}
	ds := dataset.New()
	for i, alg := range algs {
		mean := 3.0 // every algorithm after the first ties for the lowest time
		if i == 0 {
			mean = 5
		}
		ds.Put(dataset.Key{Coll: coll.Bcast, Alg: alg, Point: p}, dataset.Entry{MeanTime: mean, WallTime: 10 * mean})
	}
	res := checkOracle(t, &dataset.Replay{DS: ds, Alloc: cluster.TopologyTwoPairs()}, coll.Bcast, []featspace.Point{p})
	if got := res.Best[p]; got != algs[1] {
		t.Errorf("tie resolved to %q, want %q", got, algs[1])
	}
}

func TestTuneBackendError(t *testing.T) {
	rp, space := testSetup(t)
	pts := append(space.Points(), featspace.Point{Nodes: 4, PPN: 1, MsgBytes: 12345}) // not in the dataset
	_, err := Tune(rp, coll.Bcast, pts, nil)
	if !errors.Is(err, dataset.ErrMissing) || !strings.HasPrefix(err.Error(), "exhaustive: ") {
		t.Errorf("err = %v, want an exhaustive: error wrapping dataset.ErrMissing", err)
	}
}
