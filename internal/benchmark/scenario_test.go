package benchmark

import (
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
)

func TestScenarioRoundTrip(t *testing.T) {
	for _, s := range allScenarios() {
		got, err := ParseScenario(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScenario(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScenario("blizzard"); err == nil {
		t.Error("unknown scenario should fail")
	}
}

func TestScenarioApply(t *testing.T) {
	base := netmodel.DefaultEnv()
	if got := Baseline.Apply(base); got != base {
		t.Errorf("baseline perturbed the env: %+v", got)
	}
	if got := DegradedLinks.Apply(base); got.BandwidthFactor != base.BandwidthFactor*4 {
		t.Errorf("degraded-links bandwidth factor = %v", got.BandwidthFactor)
	}
	storm := CongestionStorm.Apply(base)
	if storm.LatencyFactor != base.LatencyFactor*8 || storm.NoiseSigma < 0.1 {
		t.Errorf("congestion-storm env = %+v", storm)
	}
	hetero := HeteroNodes.Apply(base)
	if hetero.HeteroEvery != 4 || hetero.HeteroFactor != 3 {
		t.Errorf("hetero-nodes env = %+v", hetero)
	}
	// Every derived environment must be constructible.
	for _, s := range allScenarios() {
		if err := s.Apply(base).Validate(); err != nil {
			t.Errorf("%v env invalid: %v", s, err)
		}
	}
}

func TestRunnerTopologyChangesTiming(t *testing.T) {
	alloc := cluster.TopologyTwoPairs()
	s := spec(coll.Bcast, "binomial", 8, 2, 8192)
	df := testRunner(t, alloc)
	torus := testRunner(t, alloc)
	topo, err := netmodel.TopologyByName("torus", alloc.Machine)
	if err != nil {
		t.Fatal(err)
	}
	torus.Topology = topo
	a, err := df.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := torus.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanTime == b.MeanTime {
		t.Error("torus topology produced identical timing to dragonfly")
	}
}

func TestRunMatrix(t *testing.T) {
	alloc := cluster.TopologyTwoPairs()
	cfg := MatrixConfig{
		Params:      netmodel.DefaultParams(),
		Env:         netmodel.DefaultEnv(),
		Alloc:       alloc,
		Bench:       Config{Seed: 3},
		Collectives: []coll.Collective{coll.Alltoall, coll.Gather},
		Point:       featspace.Point{Nodes: 4, PPN: 2, MsgBytes: 1024},
	}
	results, err := RunMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	algs := coll.NumAlgorithms(coll.Alltoall) + coll.NumAlgorithms(coll.Gather)
	want := algs * len(netmodel.TopologyNames()) * len(allScenarios())
	if len(results) != want {
		t.Fatalf("matrix = %d cells, want %d", len(results), want)
	}
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		if r.MeanTime <= 0 || r.WallTime <= 0 {
			t.Fatalf("cell %v has non-positive times: %+v", r.Cell, r)
		}
		key := r.Cell.String()
		if seen[key] {
			t.Fatalf("duplicate cell %v", r.Cell)
		}
		seen[key] = true
	}
	// Perturbed scenarios must be slower than baseline for the same cell
	// on the same topology: every perturbation only adds cost.
	base := make(map[string]float64)
	for _, r := range results {
		if r.Cell.Scenario == Baseline {
			base[r.Cell.Topology+"/"+r.Cell.Alg+"/"+r.Cell.Coll.String()] = r.MeanTime
		}
	}
	for _, r := range results {
		if r.Cell.Scenario == Baseline {
			continue
		}
		b := base[r.Cell.Topology+"/"+r.Cell.Alg+"/"+r.Cell.Coll.String()]
		// Noise differs across scenarios, so compare with slack.
		if r.MeanTime < b*0.8 {
			t.Errorf("cell %v faster (%v) than baseline (%v)", r.Cell, r.MeanTime, b)
		}
	}
}

func TestRunMatrixInvalidPoint(t *testing.T) {
	cfg := MatrixConfig{
		Params: netmodel.DefaultParams(),
		Env:    netmodel.DefaultEnv(),
		Alloc:  cluster.TopologyTwoPairs(),
		Point:  featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 0},
	}
	if _, err := RunMatrix(cfg); err == nil {
		t.Error("invalid feature point should fail before any cell runs")
	}
}

func TestRunMatrixUnknownTopology(t *testing.T) {
	cfg := MatrixConfig{
		Params:     netmodel.DefaultParams(),
		Env:        netmodel.DefaultEnv(),
		Alloc:      cluster.TopologyTwoPairs(),
		Topologies: []string{"moebius"},
		Point:      featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 64},
	}
	if _, err := RunMatrix(cfg); err == nil {
		t.Error("unknown topology should fail")
	}
}
