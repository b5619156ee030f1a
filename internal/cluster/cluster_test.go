package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMachineRackMath(t *testing.T) {
	m := Machine{Nodes: 100, NodesPerRack: 16, CoresPerNode: 64}
	if got := m.RackOf(0); got != 0 {
		t.Errorf("RackOf(0) = %d", got)
	}
	if got := m.RackOf(16); got != 1 {
		t.Errorf("RackOf(16) = %d, want 1", got)
	}
	if got := m.PairOf(3); got != 1 {
		t.Errorf("PairOf(3) = %d, want 1", got)
	}
	if got := m.PairOfNode(48); got != 1 { // node 48 -> rack 3 -> pair 1
		t.Errorf("PairOfNode(48) = %d, want 1", got)
	}
}

func TestMachineValidate(t *testing.T) {
	if err := Theta().Validate(); err != nil {
		t.Errorf("Theta invalid: %v", err)
	}
	if err := Bebop().Validate(); err != nil {
		t.Errorf("Bebop invalid: %v", err)
	}
	bad := []Machine{
		{Nodes: 0, NodesPerRack: 1, CoresPerNode: 1},
		{Nodes: 1, NodesPerRack: 0, CoresPerNode: 1},
		{Nodes: 1, NodesPerRack: 1, CoresPerNode: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
}

func TestContiguous(t *testing.T) {
	m := Bebop()
	a, err := Contiguous(m, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 8 || a.Nodes[0] != 4 || a.Nodes[7] != 11 {
		t.Errorf("allocation = %v", a.Nodes)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if _, err := Contiguous(m, 120, 16); err == nil {
		t.Error("out-of-range allocation should fail")
	}
	if _, err := Contiguous(m, 0, 0); err == nil {
		t.Error("empty allocation should fail")
	}
}

func TestStrided(t *testing.T) {
	m := Machine{Nodes: 512, NodesPerRack: 2, CoresPerNode: 64}
	a, err := strided(m, 0, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes[1] != 4 || a.Nodes[9] != 36 {
		t.Errorf("strided nodes = %v", a.Nodes)
	}
	if _, err := strided(m, 0, 1000, 4); err == nil {
		t.Error("overlong stride should fail")
	}
}

func TestSpans(t *testing.T) {
	// 16-node racks: 32 contiguous nodes span 2 racks, 1 pair.
	m := Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	a, _ := Contiguous(m, 0, 32)
	if a.RackSpan() != 2 {
		t.Errorf("RackSpan = %d, want 2", a.RackSpan())
	}
	if a.PairSpan() != 1 {
		t.Errorf("PairSpan = %d, want 1", a.PairSpan())
	}
	b, _ := Contiguous(m, 0, 64)
	if b.PairSpan() != 2 {
		t.Errorf("PairSpan(64) = %d, want 2", b.PairSpan())
	}
}

func TestSpreadOrdering(t *testing.T) {
	// Compact < pair-spanning < fully scattered.
	compact := TopologySingleRack()
	pair := TopologyRackPair()
	scattered := TopologyMaxParallel()
	sc, sp, ss := compact.Spread(), pair.Spread(), scattered.Spread()
	if !(sc < sp && sp < ss) {
		t.Errorf("Spread ordering violated: compact=%v pair=%v scattered=%v", sc, sp, ss)
	}
	if sc != 1 {
		t.Errorf("single-rack spread = %v, want 1", sc)
	}
	if ss != 3 {
		t.Errorf("max-parallel spread = %v, want 3 (all global)", ss)
	}
}

func TestSpreadSingleNode(t *testing.T) {
	a, _ := Contiguous(Bebop(), 0, 1)
	if a.Spread() != 0 {
		t.Errorf("single-node spread = %v, want 0", a.Spread())
	}
}

func TestBestEffortProperties(t *testing.T) {
	m := Theta()
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%128 + 1
		rng := rand.New(rand.NewSource(seed))
		a, err := BestEffort(m, rng, n)
		if err != nil {
			return false
		}
		if a.Size() != n {
			return false
		}
		return a.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBestEffortDeterministic(t *testing.T) {
	m := Theta()
	a1, _ := BestEffort(m, rand.New(rand.NewSource(42)), 32)
	a2, _ := BestEffort(m, rand.New(rand.NewSource(42)), 32)
	if len(a1.Nodes) != len(a2.Nodes) {
		t.Fatal("non-deterministic sizes")
	}
	for i := range a1.Nodes {
		if a1.Nodes[i] != a2.Nodes[i] {
			t.Fatal("same seed produced different allocations")
		}
	}
}

func TestBestEffortErrors(t *testing.T) {
	m := Bebop()
	rng := rand.New(rand.NewSource(1))
	if _, err := BestEffort(m, rng, 0); err == nil {
		t.Error("zero-size should fail")
	}
	if _, err := BestEffort(m, rng, m.Nodes+1); err == nil {
		t.Error("oversize should fail")
	}
}

func TestBestEffortSpreadVaries(t *testing.T) {
	// Over many draws, allocations should show meaningful spread
	// variation — the paper's >2x latency variation depends on it.
	m := Theta()
	rng := rand.New(rand.NewSource(7))
	lo, hi := 99.0, 0.0
	for i := 0; i < 40; i++ {
		a, err := BestEffort(m, rng, 64)
		if err != nil {
			t.Fatal(err)
		}
		s := a.Spread()
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi-lo < 0.2 {
		t.Errorf("best-effort allocations show too little spread variation: [%v, %v]", lo, hi)
	}
}

func TestTopologyPresets(t *testing.T) {
	for name, a := range map[string]Allocation{
		"SingleRack":  TopologySingleRack(),
		"RackPair":    TopologyRackPair(),
		"TwoPairs":    TopologyTwoPairs(),
		"MaxParallel": TopologyMaxParallel(),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if a.Size() != 64 {
			t.Errorf("%s has %d nodes, want 64", name, a.Size())
		}
	}
	if TopologySingleRack().RackSpan() != 1 {
		t.Error("SingleRack should span 1 rack")
	}
	if TopologyRackPair().RackSpan() != 2 || TopologyRackPair().PairSpan() != 1 {
		t.Error("RackPair should span 2 racks in 1 pair")
	}
	if TopologyTwoPairs().RackSpan() != 4 || TopologyTwoPairs().PairSpan() != 2 {
		t.Error("TwoPairs should span 4 racks in 2 pairs")
	}
	mp := TopologyMaxParallel()
	if mp.RackSpan() != 64 || mp.PairSpan() != 64 {
		t.Errorf("MaxParallel spans %d racks / %d pairs, want 64/64", mp.RackSpan(), mp.PairSpan())
	}
}

func TestAllocationValidateRejects(t *testing.T) {
	m := Bebop()
	bad := Allocation{Machine: m, Nodes: []int{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate nodes should fail validation")
	}
	bad2 := Allocation{Machine: m, Nodes: []int{-1}}
	if err := bad2.Validate(); err == nil {
		t.Error("negative node should fail validation")
	}
	bad3 := Allocation{Machine: m, Nodes: []int{m.Nodes}}
	if err := bad3.Validate(); err == nil {
		t.Error("out-of-range node should fail validation")
	}
	bad4 := Allocation{Machine: m}
	if err := bad4.Validate(); err == nil {
		t.Error("empty allocation should fail validation")
	}
}
