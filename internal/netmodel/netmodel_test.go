package netmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"acclaim/internal/cluster"
)

func mustModel(t *testing.T, ppn int, alloc cluster.Allocation) *Model {
	t.Helper()
	m, err := New(DefaultParams(), DefaultEnv(), alloc, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamOrdering(t *testing.T) {
	p := DefaultParams()
	// Latency must increase and bandwidth decrease with layer distance.
	for c := IntraNode; c < Global; c++ {
		if p.Latency[c] >= p.Latency[c+1] {
			t.Errorf("latency not increasing at %v", c)
		}
		if p.Bandwidth[c] <= p.Bandwidth[c+1] {
			t.Errorf("bandwidth not decreasing at %v", c)
		}
	}
}

func TestClassify(t *testing.T) {
	// Machine with 4-node racks: nodes 0-3 rack 0, 4-7 rack 1 (pair 0),
	// 8-11 rack 2 (pair 1).
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, 2, alloc) // ranks 2i, 2i+1 on node i
	cases := []struct {
		a, b int
		want PathClass
	}{
		{0, 1, IntraNode}, // same node 0
		{0, 2, IntraRack}, // nodes 0,1: same rack
		{0, 8, RackPair},  // nodes 0,4: racks 0,1 -> same pair
		{0, 16, Global},   // nodes 0,8: racks 0,2 -> different pairs
		{17, 16, IntraNode},
	}
	for _, c := range cases {
		if got := m.class(c.a, c.b); got != c.want {
			t.Errorf("class(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTransferMonotoneInDistance(t *testing.T) {
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 12)
	m := mustModel(t, 2, alloc)
	const bytes = 4096
	intra := m.Transfer(0, 1, bytes)
	rack := m.Transfer(0, 2, bytes)
	pair := m.Transfer(0, 8, bytes)
	global := m.Transfer(0, 16, bytes)
	if !(intra < rack && rack < pair && pair < global) {
		t.Errorf("transfer times not ordered: %v %v %v %v", intra, rack, pair, global)
	}
}

// Property: transfer time is symmetric in direction, positive, and
// strictly increasing in message size within a P2 class. Across the
// P2/non-P2 boundary monotonicity deliberately breaks: the model's
// alignment penalty means a 3072-byte message can cost more than a
// 4096-byte one (the cliff ACCLAiM's Section IV-B exists to learn), so
// the growth property only applies when both sizes share the penalty.
func TestTransferProperties(t *testing.T) {
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 16)
	m := mustModel(t, 4, alloc)
	n := m.Ranks()
	f := func(ra, rb uint16, sz uint16) bool {
		a, b := int(ra)%n, int(rb)%n
		if a == b {
			return true
		}
		small := int(sz)
		t1 := m.Transfer(a, b, small)
		t2 := m.Transfer(a, b, small+1024)
		sym := m.Transfer(b, a, small)
		if t1 != sym || t1 <= 0 {
			return false
		}
		if small > 0 && isP2(small) != isP2(small+1024) {
			// Exemption: the two sizes sit on opposite sides of the
			// P2/non-P2 alignment cliff (NonP2Penalty/NonP2Alpha), where
			// the smaller-but-misaligned message can legitimately cost
			// more than the larger aligned one — that inversion is the
			// behaviour ACCLAiM's non-P2 training points exist to learn
			// (Section IV-B), not a model bug, so no ordering is asserted.
			return true
		}
		return t2 > t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTransferNonP2Cliff pins the cliff itself: a non-P2 message may
// cost more than the next P2 size up, and the penalty applies exactly
// when the size is not a power of two.
func TestTransferNonP2Cliff(t *testing.T) {
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 16)
	m := mustModel(t, 4, alloc)
	if p2, nonP2 := m.Transfer(0, 2, 4096), m.Transfer(0, 2, 3072); nonP2 <= p2 {
		t.Errorf("non-P2 3072B transfer (%v) not above P2 4096B (%v)", nonP2, p2)
	}
}

func TestEnvScalesNetworkOnly(t *testing.T) {
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 8)
	calm, _ := New(DefaultParams(), DefaultEnv(), alloc, 2)
	congested, _ := New(DefaultParams(), Env{LatencyFactor: 2.5, BandwidthFactor: 1.5, NoiseSigma: 0}, alloc, 2)
	// Intra-node transfers are unaffected by the environment.
	if a, b := calm.Transfer(0, 1, 1024), congested.Transfer(0, 1, 1024); a != b {
		t.Errorf("intra-node transfer affected by env: %v vs %v", a, b)
	}
	// Network transfers must get slower.
	if a, b := calm.Transfer(0, 2, 1024), congested.Transfer(0, 2, 1024); b <= a {
		t.Errorf("network transfer not slowed by env: %v vs %v", a, b)
	}
}

func TestSampleEnvSpreadAndVariation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	compact := cluster.TopologySingleRack()
	scattered := cluster.TopologyMaxParallel()
	// Averaged over draws, scattered allocations must have higher
	// latency factors than compact ones.
	var sumC, sumS float64
	const draws = 200
	for i := 0; i < draws; i++ {
		sumC += SampleEnv(rng, compact).LatencyFactor
		sumS += SampleEnv(rng, scattered).LatencyFactor
	}
	if sumS <= sumC {
		t.Errorf("scattered mean latency factor %v <= compact %v", sumS/draws, sumC/draws)
	}
	// The paper reports >2x variation across jobs; our sampler must be
	// able to produce a 2x range across allocations and draws.
	lo, hi := 99.0, 0.0
	for i := 0; i < draws; i++ {
		f := SampleEnv(rng, scattered).LatencyFactor
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	loC := 99.0
	for i := 0; i < draws; i++ {
		if f := SampleEnv(rng, compact).LatencyFactor; f < loC {
			loC = f
		}
	}
	if hi/loC < 2 {
		t.Errorf("latency factor range %v–%v (<2x): cannot reproduce paper's variation", loC, hi)
	}
}

func TestSampleEnvValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		e := SampleEnv(rng, cluster.TopologyRackPair())
		if err := e.Validate(); err != nil {
			t.Fatalf("sampled env invalid: %v", err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	alloc, _ := cluster.Contiguous(cluster.Bebop(), 0, 4)
	if _, err := New(DefaultParams(), DefaultEnv(), alloc, 0); err == nil {
		t.Error("ppn=0 should fail")
	}
	if _, err := New(DefaultParams(), DefaultEnv(), alloc, 1000); err == nil {
		t.Error("ppn > cores should fail")
	}
	if _, err := New(DefaultParams(), Env{LatencyFactor: 0.5, BandwidthFactor: 1}, alloc, 2); err == nil {
		t.Error("latency factor < 1 should fail")
	}
	if _, err := New(Params{}, DefaultEnv(), alloc, 2); err == nil {
		t.Error("zero params should fail")
	}
}

func TestRanksAndNodeOf(t *testing.T) {
	alloc, _ := cluster.Contiguous(cluster.Bebop(), 2, 4)
	m := mustModel(t, 3, alloc)
	if m.Ranks() != 12 {
		t.Errorf("Ranks = %d, want 12", m.Ranks())
	}
	nodeOf := func(r int) int { return m.Alloc.Nodes[m.nodeIx[r]] }
	if nodeOf(0) != 2 || nodeOf(3) != 3 || nodeOf(11) != 5 {
		t.Errorf("rank -> node mapping wrong: %d %d %d", nodeOf(0), nodeOf(3), nodeOf(11))
	}
}

func TestCostHelpers(t *testing.T) {
	alloc, _ := cluster.Contiguous(cluster.Bebop(), 0, 2)
	m := mustModel(t, 1, alloc)
	if m.ReduceCost(4000) <= 0 || m.CopyCost(12000) <= 0 {
		t.Error("cost helpers must be positive")
	}
	if m.ReduceCost(8000) != 2*m.ReduceCost(4000) {
		t.Error("ReduceCost must be linear")
	}
	if m.SendOverhead() <= 0 {
		t.Error("SendOverhead must be positive")
	}
}

func TestNonP2Penalty(t *testing.T) {
	alloc, _ := cluster.Contiguous(cluster.Bebop(), 0, 2)
	m := mustModel(t, 1, alloc)
	// A non-P2 transfer must cost more per byte than the surrounding P2
	// sizes predict by interpolation.
	t16k := m.Transfer(0, 1, 16384)
	t32k := m.Transfer(0, 1, 32768)
	t24k := m.Transfer(0, 1, 24576) // halfway, non-P2
	interp := (t16k + t32k) / 2
	if t24k <= interp {
		t.Errorf("non-P2 transfer %v not above P2 interpolation %v", t24k, interp)
	}
	// Same for reduce and copy costs.
	if m.ReduceCost(24576) <= (m.ReduceCost(16384)+m.ReduceCost(32768))/2 {
		t.Error("non-P2 reduce cost not penalized")
	}
	if m.CopyCost(24576) <= (m.CopyCost(16384)+m.CopyCost(32768))/2 {
		t.Error("non-P2 copy cost not penalized")
	}
}

func TestNonP2PenaltyValidation(t *testing.T) {
	p := DefaultParams()
	p.NonP2Penalty = 0.5
	if err := p.Validate(); err == nil {
		t.Error("NonP2Penalty < 1 should fail validation")
	}
}
