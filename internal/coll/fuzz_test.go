package coll

import (
	"bytes"
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/netmodel"
)

// FuzzCollDifferential* are the schedule-vs-schedule differential fuzz
// targets for the scenario-diversity collectives, mirroring
// FuzzTrainDifferential/FuzzCompiledDifferential in internal/forest:
// for an arbitrary (nodes, ppn, msgsize, root, op) shape, every
// registered schedule of the collective must produce byte-identical
// outputs at every meaningful rank — on all three network models, since
// a topology only reprices transfers and must never change bytes. Each
// execution also verifies the collective's postcondition internally
// (Options.WithData), so a target catches both divergence between
// schedules and outright wrong answers.
//
// Seeded corpora live under testdata/fuzz/<target>/; CI runs each
// target for 30s per push (the fuzz-smoke job).

// fuzzTopoModel builds a model over the named topology on the same
// machine shape as modelFor.
func fuzzTopoModel(t *testing.T, topoName string, nodes, ppn int) *netmodel.Model {
	t.Helper()
	mach := cluster.Machine{Nodes: 1024, NodesPerRack: 16, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := netmodel.TopologyByName(topoName, mach)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netmodel.NewWithTopology(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, ppn, topo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fuzzCollDifferential is the shared body: clamp the raw fuzz inputs
// into a valid shape, then compare all schedules pairwise against the
// first on every topology.
func fuzzCollDifferential(f *testing.F, c Collective) {
	f.Add(uint8(2), uint8(1), uint16(1), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(2), uint16(128), uint8(3), uint8(1))
	f.Add(uint8(7), uint8(1), uint16(1000), uint8(5), uint8(2)) // non-P2 ranks and size
	f.Add(uint8(12), uint8(3), uint16(513), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, rawNodes, rawPPN uint8, rawMsg uint16, rawRoot, rawOp uint8) {
		e := testEngine(t)
		nodes := 2 + int(rawNodes)%13 // 2..14 nodes
		ppn := 1 + int(rawPPN)%3      // 1..3 ranks per node
		msg := 1 + int(rawMsg)%4096   // 1..4096 bytes
		op := propOps[int(rawOp)%len(propOps)]
		opts := Options{WithData: true, Op: op}
		if Rooted(c) {
			opts.Root = int(rawRoot) % (nodes * ppn)
		}
		algs := AlgorithmNames(c)
		for _, topoName := range netmodel.TopologyNames() {
			model := fuzzTopoModel(t, topoName, nodes, ppn)
			ref, _, err := execOutputs(e, model, c, algs[0], msg, opts)
			if err != nil {
				t.Fatalf("%s: %v/%s nodes=%d ppn=%d msg=%d root=%d: %v",
					topoName, c, algs[0], nodes, ppn, msg, opts.Root, err)
			}
			for _, alg := range algs[1:] {
				outs, _, err := execOutputs(e, model, c, alg, msg, opts)
				if err != nil {
					t.Fatalf("%s: %v/%s nodes=%d ppn=%d msg=%d root=%d: %v",
						topoName, c, alg, nodes, ppn, msg, opts.Root, err)
				}
				for _, r := range outputRanks(c, opts.Root, nodes*ppn) {
					if !bytes.Equal(ref[r].Data, outs[r].Data) {
						t.Fatalf("%s: %v rank %d: %s and %s disagree (nodes=%d ppn=%d msg=%d root=%d)",
							topoName, c, r, algs[0], alg, nodes, ppn, msg, opts.Root)
					}
				}
			}
		}
	})
}

func FuzzCollDifferentialAlltoall(f *testing.F)      { fuzzCollDifferential(f, Alltoall) }
func FuzzCollDifferentialReduceScatter(f *testing.F) { fuzzCollDifferential(f, ReduceScatter) }
func FuzzCollDifferentialGather(f *testing.F)        { fuzzCollDifferential(f, Gather) }
func FuzzCollDifferentialScatter(f *testing.F)       { fuzzCollDifferential(f, Scatter) }
