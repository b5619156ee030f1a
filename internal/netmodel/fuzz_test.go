package netmodel_test

import (
	"math"
	"math/rand"
	"testing"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/netmodel"
)

// FuzzTransferDifferential holds Model.Transfer — its node-pair class
// table and its per-class costs precomputed for P2 and
// non-P2 sizes — to ReferenceTransfer (reference_test.go), which
// classifies and prices every call from scratch. Over any topology,
// rack size, contiguous or best-effort allocation (up to 16 nodes x 8
// ppn), SampleEnv draw perturbed by any scenario, and hetero node
// pattern, the fuzzed rank pair must price bit for bit alike at sizes
// 0, 1, a power of two and the fuzzed size, and then every rank pair
// must at the fuzzed size.
func FuzzTransferDifferential(f *testing.F) {
	topos := netmodel.TopologyNames()
	for i := range topos {
		f.Add(uint8(i), uint8(1), int64(i), true, uint8(5), uint8(2), uint8(i), uint8(0), uint16(0), uint16(9), uint32(3000))
		f.Add(uint8(i), uint8(2), int64(7+i), false, uint8(15), uint8(7), uint8(3), uint8(2), uint16(5), uint16(100), uint32(1<<20-1))
	}
	f.Fuzz(func(t *testing.T, rawTopo, rawRack uint8, allocSeed int64, scattered bool, rawNodes, rawPPN, rawScen, rawHetero uint8, rawA, rawB uint16, rawSize uint32) {
		mach := cluster.Machine{Nodes: 256, NodesPerRack: []int{2, 4, 16}[int(rawRack)%3], CoresPerNode: 64}
		nodes := 1 + int(rawNodes)%16
		ppn := 1 + int(rawPPN)%8
		rng := rand.New(rand.NewSource(allocSeed))
		var alloc cluster.Allocation
		var err error
		if scattered {
			alloc, err = cluster.BestEffort(mach, rng, nodes)
		} else {
			alloc, err = cluster.Contiguous(mach, rng.Intn(mach.Nodes-nodes+1), nodes)
		}
		if err != nil {
			t.Fatal(err)
		}
		scen := benchmark.Scenario(int(rawScen) % 4)
		env := scen.Apply(netmodel.SampleEnv(rng, alloc))
		if env.HeteroEvery > 0 { // vary the slow-node pattern the scenario fixes
			env.HeteroEvery = 1 + int(rawHetero)%5
			env.HeteroFactor = 1 + float64(rawHetero)/16
		}
		topo, err := netmodel.TopologyByName(topos[int(rawTopo)%len(topos)], mach)
		if err != nil {
			t.Fatal(err)
		}
		m, err := netmodel.NewWithTopology(netmodel.DefaultParams(), env, alloc, ppn, topo)
		if err != nil {
			t.Fatal(err)
		}

		n := m.Ranks()
		size := int(rawSize) % (1<<24 + 1)
		check := func(a, b, bytes int) {
			got, want := m.Transfer(a, b, bytes), netmodel.ReferenceTransfer(m, a, b, bytes)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v nodes %v ppn %d env %+v: Transfer(%d, %d, %d) = %v, reference %v",
					topo.Name(), scen, alloc.Nodes, ppn, env, a, b, bytes, got, want)
			}
		}
		a, b := int(rawA)%n, int(rawB)%n
		for _, bytes := range []int{0, 1, 1 << (size % 21), size} {
			check(a, b, bytes)
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				check(a, b, size)
			}
		}
	})
}
