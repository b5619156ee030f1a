package netmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"acclaim/internal/cluster"
)

func mustFatTree(t *testing.T, nodes, perLeaf, leavesPerPod int) Topology {
	t.Helper()
	topo, err := newFatTree(nodes, perLeaf, leavesPerPod)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mustTorus(t *testing.T, x, y, z int) Topology {
	t.Helper()
	topo, err := newTorus3D(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func modelOn(t *testing.T, topo Topology, nodes, ppn int) *Model {
	t.Helper()
	mach := cluster.Machine{Nodes: topo.Nodes(), NodesPerRack: 4, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithTopology(DefaultParams(), DefaultEnv(), alloc, ppn, topo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFatTreeClasses(t *testing.T) {
	// 4 nodes per leaf, 2 leaves per pod: nodes 0-3 leaf 0, 4-7 leaf 1
	// (pod 0), 8-11 leaf 2 (pod 1).
	ft := mustFatTree(t, 64, 4, 2)
	cases := []struct {
		a, b int
		want PathClass
	}{
		{0, 3, IntraRack}, // same leaf
		{0, 4, RackPair},  // same pod, different leaf
		{0, 8, Global},    // different pods
	}
	for _, c := range cases {
		if got := ft.ClassBetween(c.a, c.b); got != c.want {
			t.Errorf("fat-tree ClassBetween(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTorusClasses(t *testing.T) {
	// 4x4x4 torus: node n at (n%4, n/4%4, n/16).
	to := mustTorus(t, 4, 4, 4)
	cases := []struct {
		a, b int
		want PathClass
	}{
		{0, 1, IntraRack},  // 1 hop on x
		{0, 4, IntraRack},  // 1 hop on y
		{0, 16, IntraRack}, // 1 hop on z
		{0, 3, IntraRack},  // wrap-around: (0,0,0)-(3,0,0) is 1 hop
		{0, 5, RackPair},   // (0,0,0)-(1,1,0): 2 hops
		{0, 21, RackPair},  // (0,0,0)-(1,1,1): 3 hops
		{0, 42, Global},    // (0,0,0)-(2,2,2): 6 hops
	}
	for _, c := range cases {
		if got := to.ClassBetween(c.a, c.b); got != c.want {
			t.Errorf("torus ClassBetween(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestClassBetweenSymmetry: for every topology, path classification is
// symmetric in its endpoints — the bisection-pair property the transfer
// cost model relies on for symmetric times.
func TestClassBetweenSymmetry(t *testing.T) {
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	topos := []Topology{
		dragonfly{mach},
		mustFatTree(t, 64, 4, 4),
		mustTorus(t, 4, 4, 4),
	}
	for _, topo := range topos {
		n := topo.Nodes()
		f := func(ra, rb uint16) bool {
			a, b := int(ra)%n, int(rb)%n
			if a == b {
				return true
			}
			return topo.ClassBetween(a, b) == topo.ClassBetween(b, a)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// TestFatTreeDragonflyParity: a fat-tree with two leaves per pod is the
// degenerate configuration where leaf = rack and pod = rack pair, so it
// must classify every node pair exactly like the Dragonfly model.
func TestFatTreeDragonflyParity(t *testing.T) {
	mach := cluster.Machine{Nodes: 48, NodesPerRack: 4, CoresPerNode: 64}
	df := dragonfly{mach}
	ft := mustFatTree(t, mach.Nodes, mach.NodesPerRack, 2)
	for a := 0; a < mach.Nodes; a++ {
		for b := 0; b < mach.Nodes; b++ {
			if a == b {
				continue
			}
			if got, want := ft.ClassBetween(a, b), df.ClassBetween(a, b); got != want {
				t.Fatalf("degenerate fat-tree disagrees with dragonfly at (%d,%d): %v vs %v", a, b, got, want)
			}
		}
	}
}

// TestTopologyTransferMonotone: on every topology, transfer time is
// positive, symmetric, and strictly increasing in message size as long
// as both sizes share the same P2-alignment regime (the cliff exemption
// documented at TestTransferProperties).
func TestTopologyTransferMonotone(t *testing.T) {
	for _, topo := range []Topology{
		mustFatTree(t, 64, 4, 4),
		mustTorus(t, 4, 4, 4),
	} {
		m := modelOn(t, topo, 16, 2)
		n := m.Ranks()
		f := func(ra, rb uint16, sz uint16) bool {
			a, b := int(ra)%n, int(rb)%n
			if a == b {
				return true
			}
			small := int(sz)
			t1 := m.Transfer(a, b, small)
			if t1 <= 0 || t1 != m.Transfer(b, a, small) {
				return false
			}
			if small > 0 && isP2(small) != isP2(small+1024) {
				return true // P2 alignment cliff: no ordering guaranteed
			}
			return m.Transfer(a, b, small+1024) > t1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// TestTopologyClassOrderedCost: farther path classes cost more on every
// topology (the Params ordering surfaces through any classification).
func TestTopologyClassOrderedCost(t *testing.T) {
	for _, topo := range []Topology{
		mustFatTree(t, 64, 4, 4),
		mustTorus(t, 4, 4, 4),
	} {
		m := modelOn(t, topo, 32, 2)
		n := m.Ranks()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if a == b || a == c {
				continue
			}
			if m.class(a, b) < m.class(a, c) &&
				m.Transfer(a, b, 4096) >= m.Transfer(a, c, 4096) {
				t.Fatalf("%s: class %v not cheaper than %v", topo.Name(), m.class(a, b), m.class(a, c))
			}
		}
	}
}

func TestTopologyByName(t *testing.T) {
	mach := cluster.Machine{Nodes: 100, NodesPerRack: 8, CoresPerNode: 64}
	for _, name := range TopologyNames() {
		topo, err := TopologyByName(name, mach)
		if err != nil {
			t.Fatalf("TopologyByName(%q): %v", name, err)
		}
		if topo.Name() != name {
			t.Errorf("TopologyByName(%q).Name() = %q", name, topo.Name())
		}
		if topo.Nodes() < mach.Nodes {
			t.Errorf("%s covers %d nodes, machine has %d", name, topo.Nodes(), mach.Nodes)
		}
	}
	if _, err := TopologyByName("hypercube", mach); err == nil {
		t.Error("unknown topology name should fail")
	}
	// The empty name is the unset CLI flag: default Dragonfly.
	topo, err := TopologyByName("", mach)
	if err != nil || topo.Name() != "dragonfly" {
		t.Errorf("empty name: %v, %v", topo, err)
	}
}

func TestTopologyConstructorValidation(t *testing.T) {
	if _, err := newFatTree(0, 4, 2); err == nil {
		t.Error("fat-tree with no nodes should fail")
	}
	if _, err := newFatTree(16, -1, 2); err == nil {
		t.Error("negative leaf size should fail")
	}
	if _, err := newTorus3D(0, 4, 4); err == nil {
		t.Error("zero torus dimension should fail")
	}
	if _, err := newTorus3D(1, 1, 1); err == nil {
		t.Error("single-node torus should fail")
	}
}

func TestNewWithTopologyBounds(t *testing.T) {
	alloc, _ := cluster.Contiguous(cluster.Bebop(), 60, 4) // nodes 60-63
	small := mustTorus(t, 2, 2, 2)                         // only 8 nodes
	if _, err := NewWithTopology(DefaultParams(), DefaultEnv(), alloc, 2, small); err == nil {
		t.Error("allocation outside topology should fail")
	}
	big := mustTorus(t, 5, 5, 6)
	if _, err := NewWithTopology(DefaultParams(), DefaultEnv(), alloc, 2, big); err != nil {
		t.Errorf("allocation inside topology failed: %v", err)
	}
}

// TestDragonflyDefaultParity: New and NewWithTopology(nil) must classify
// and price identically — the topology seam cannot shift the paper's
// baseline results.
func TestDragonflyDefaultParity(t *testing.T) {
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 12)
	a, err := New(DefaultParams(), DefaultEnv(), alloc, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWithTopology(DefaultParams(), DefaultEnv(), alloc, 2, dragonfly{mach})
	if err != nil {
		t.Fatal(err)
	}
	if a.Topology().Name() != "dragonfly" {
		t.Errorf("default topology = %s", a.Topology().Name())
	}
	for x := 0; x < a.Ranks(); x++ {
		for y := 0; y < a.Ranks(); y++ {
			if x == y {
				continue
			}
			if a.class(x, y) != b.class(x, y) {
				t.Fatalf("class(%d,%d) differs between New and explicit Dragonfly", x, y)
			}
			if a.Transfer(x, y, 1024) != b.Transfer(x, y, 1024) {
				t.Fatalf("Transfer(%d,%d) differs between New and explicit Dragonfly", x, y)
			}
		}
	}
}

func TestHeteroNodeSpeed(t *testing.T) {
	mach := cluster.Machine{Nodes: 64, NodesPerRack: 4, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 8)
	env := DefaultEnv()
	env.HeteroEvery = 4 // allocated nodes 3 and 7 are slow
	env.HeteroFactor = 3
	slow, err := New(DefaultParams(), env, alloc, 2)
	if err != nil {
		t.Fatal(err)
	}
	calm, _ := New(DefaultParams(), DefaultEnv(), alloc, 2)

	// Ranks 6,7 live on allocated node 3 (slow); ranks 0-5 on fast nodes.
	if got, want := slow.Transfer(0, 6, 1024), 3*calm.Transfer(0, 6, 1024); got != want {
		t.Errorf("slow-endpoint transfer = %v, want %v", got, want)
	}
	if got, want := slow.Transfer(0, 2, 1024), calm.Transfer(0, 2, 1024); got != want {
		t.Errorf("fast-pair transfer changed: %v vs %v", got, want)
	}
	// Symmetry survives heterogeneity.
	if slow.Transfer(6, 0, 1024) != slow.Transfer(0, 6, 1024) {
		t.Error("hetero transfer not symmetric")
	}
	// Intra-node traffic on a slow node is slow too.
	if got, want := slow.Transfer(6, 7, 1024), 3*calm.Transfer(6, 7, 1024); got != want {
		t.Errorf("slow intra-node transfer = %v, want %v", got, want)
	}
}

func TestHeteroEnvValidation(t *testing.T) {
	e := DefaultEnv()
	e.HeteroEvery = -1
	if err := e.Validate(); err == nil {
		t.Error("negative HeteroEvery should fail")
	}
	e = DefaultEnv()
	e.HeteroEvery = 4
	e.HeteroFactor = 0.5
	if err := e.Validate(); err == nil {
		t.Error("HeteroFactor < 1 should fail")
	}
	e.HeteroFactor = 2
	if err := e.Validate(); err != nil {
		t.Errorf("valid hetero env rejected: %v", err)
	}
}
