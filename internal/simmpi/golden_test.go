package simmpi_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// update regenerates testdata/clocks.golden:
//
//	go test ./internal/simmpi/ -run ClockGolden -update
//
// The file pins simulated time across commits, so a diff in it is a
// change to what the simulator computes, never a refactoring detail.
var update = flag.Bool("update", false, "rewrite the simulated-clock golden file")

// TestClockGolden pins the simulated clocks of every schedule across
// commits. FuzzRunDifferential runs both of its legs on the same
// netmodel and the same schedules, so a change to pricing or to a
// schedule loop moves both legs together and goes unseen there; this
// golden records, for every collective × algorithm × topology ×
// scenario, on two scattered (cluster.BestEffort) allocations — one
// with a power-of-two rank count, one without — and at one P2 and one
// non-P2 message size, the bits of MaxClock, the message count, and an
// FNV-1a hash over the bits of every rank's final clock.
func TestClockGolden(t *testing.T) {
	mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	rng := rand.New(rand.NewSource(15))
	shapes := []struct{ nodes, ppn int }{{6, 3}, {8, 2}}
	var buf bytes.Buffer
	for _, sh := range shapes {
		alloc, err := cluster.BestEffort(mach, rng, sh.nodes)
		if err != nil {
			t.Fatal(err)
		}
		base := netmodel.SampleEnv(rng, alloc)
		fmt.Fprintf(&buf, "# %dx%d on nodes %v\n", sh.nodes, sh.ppn, alloc.Nodes)
		for _, topoName := range netmodel.TopologyNames() {
			topo, err := netmodel.TopologyByName(topoName, mach)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range []benchmark.Scenario{benchmark.Baseline, benchmark.DegradedLinks,
				benchmark.CongestionStorm, benchmark.HeteroNodes} {
				model, err := netmodel.NewWithTopology(netmodel.DefaultParams(), sc.Apply(base), alloc, sh.ppn, topo)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range coll.Collectives() {
					for _, alg := range coll.AlgorithmNames(c) {
						for _, msg := range []int{4096, 3000} {
							res, err := coll.Exec(model, c, alg, msg, coll.Options{Op: simmpi.OpSum})
							if err != nil {
								t.Fatalf("%v/%s on %s/%v msg=%d: %v", c, alg, topoName, sc, msg, err)
							}
							h := fnv.New64a()
							for _, clk := range res.Clocks {
								var b [8]byte
								bits := math.Float64bits(clk)
								for i := range b {
									b[i] = byte(bits >> (8 * i))
								}
								h.Write(b[:])
							}
							fmt.Fprintf(&buf, "%dx%d %-9s %-16v %-14v %-22s %5d max=%016x sent=%-5d clocks=%016x\n",
								sh.nodes, sh.ppn, topoName, sc, c, alg, msg,
								math.Float64bits(res.MaxClock), res.Sent, h.Sum64())
						}
					}
				}
			}
		}
	}

	path := filepath.Join("testdata", "clocks.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("simulated clocks drifted at line %d:\n got  %s\n want %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("simulated clocks drifted: %d lines, golden has %d", len(got), len(exp))
	}
}
