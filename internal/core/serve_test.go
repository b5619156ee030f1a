package core

import (
	"path/filepath"
	"testing"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// serve lowers tuning results into a rule file and installs it as the
// default tenant of a fresh ruleserver.Registry, as cmd/acclaim-serve
// -rules does with a file the tuner wrote. It returns the registry, the
// tenant's shard and the file.
func serve(t *testing.T, tuner *Tuner, results map[coll.Collective]*Result, machine string) (*ruleserver.Registry, *ruleserver.Server, *rules.File) {
	t.Helper()
	file, err := tuner.BuildRulesFile(results, machine)
	if err != nil {
		t.Fatal(err)
	}
	reg := ruleserver.NewRegistry()
	if err := reg.Swap(ruleserver.DefaultTenant, file); err != nil {
		t.Fatal(err)
	}
	srv, _ := reg.Tenant(ruleserver.DefaultTenant)
	return reg, srv, file
}

// TestServeEndToEnd is the full-pipeline determinism test: a seeded
// ACCLAiM run over every collective, lowered to a rule file, compiled
// into the serving engine — and then every point of the tuner's feature
// space (plus off-grid and non-P2 probes) must resolve through the
// server to an algorithm the collective actually has, byte-identical to
// what the nested rule-file walk selects.
func TestServeEndToEnd(t *testing.T) {
	tuner := New(testConfig(), liveBackend(t))
	results, err := tuner.TuneAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, srv, file := serve(t, tuner, results, "sim")
	if got := srv.Stats().Tables; got != len(file.Tables) {
		t.Fatalf("server holds %d tables, file has %d", got, len(file.Tables))
	}

	// Every grid point, every off-grid neighbour, every collective.
	probes := testSpace().Points()
	for _, p := range testSpace().Points() {
		probes = append(probes,
			featspace.Point{Nodes: p.Nodes + 1, PPN: p.PPN, MsgBytes: p.MsgBytes + 3},
			featspace.Point{Nodes: p.Nodes, PPN: p.PPN + 1, MsgBytes: p.MsgBytes - 1},
		)
	}
	probes = append(probes, featspace.Point{Nodes: 4096, PPN: 128, MsgBytes: 1 << 30})
	for _, c := range coll.Collectives() {
		tab := file.Tables[c.String()]
		for _, p := range probes {
			alg, ok := srv.Lookup(c, p.Nodes, p.PPN, p.MsgBytes)
			if !ok {
				t.Fatalf("%v: server missed at %v", c, p)
			}
			if _, known := coll.AlgIndex(c, alg); !known {
				t.Fatalf("%v: server selected unknown algorithm %q at %v", c, alg, p)
			}
			want, err := tab.Select(p.Nodes, p.PPN, p.MsgBytes)
			if err != nil {
				t.Fatalf("%v: rule file incomplete at %v: %v", c, p, err)
			}
			if alg != want {
				t.Fatalf("%v at %v: server = %q, rule file = %q", c, p, alg, want)
			}
		}
	}

	// The emitted file survives a disk round trip into a fresh server
	// (the cmd/acclaim-serve path) and a hot reload on the live one.
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := file.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load(ruleserver.DefaultTenant, path); err != nil {
		t.Fatalf("hot reload of emitted file: %v", err)
	}
	if st := srv.Stats(); st.Version != 2 || st.Swaps != 2 {
		t.Errorf("reload did not publish a new snapshot: %+v", st)
	}
	alg, ok := srv.Lookup(coll.Bcast, 8, 2, 4096)
	if !ok {
		t.Fatal("lookup missed after reload")
	}
	if _, known := coll.AlgIndex(coll.Bcast, alg); !known {
		t.Fatalf("unknown algorithm %q after reload", alg)
	}
}

// TestServeTopologyEndToEnd runs the seeded TuneAll → rule file → server pipeline for
// the scenario-diversity collectives on the non-default interconnects:
// tuning alltoall on a fat-tree and reduce_scatter on a 3D torus must
// produce a complete rule table whose served selections are always
// algorithms the collective actually registers. This is the acceptance
// gate that the new collectives and the new machine models compose
// through the unchanged AlgSource seam that Runner.RunSelected
// consults and Index.Lookup implements.
func TestServeTopologyEndToEnd(t *testing.T) {
	cases := []struct {
		topo string
		c    coll.Collective
	}{
		{"fat-tree", coll.Alltoall},
		{"torus", coll.ReduceScatter},
	}
	for _, tc := range cases {
		t.Run(tc.topo, func(t *testing.T) {
			alloc := cluster.TopologyTwoPairs()
			topo, err := netmodel.TopologyByName(tc.topo, alloc.Machine)
			if err != nil {
				t.Fatal(err)
			}
			r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(),
				alloc, benchmark.Config{Seed: 33})
			if err != nil {
				t.Fatal(err)
			}
			r.Topology = topo
			tuner := New(testConfig(), autotune.LiveBackend{Runner: r})
			results, err := tuner.TuneAll([]coll.Collective{tc.c})
			if err != nil {
				t.Fatal(err)
			}
			_, srv, file := serve(t, tuner, results, "sim-"+tc.topo)
			tab := file.Tables[tc.c.String()]
			if tab == nil {
				t.Fatalf("no rule table emitted for %v", tc.c)
			}
			for _, p := range testSpace().Points() {
				alg, ok := srv.Lookup(tc.c, p.Nodes, p.PPN, p.MsgBytes)
				if !ok {
					t.Fatalf("%v on %s: server missed at %v", tc.c, tc.topo, p)
				}
				if _, known := coll.AlgIndex(tc.c, alg); !known {
					t.Fatalf("%v on %s: served unknown algorithm %q at %v", tc.c, tc.topo, alg, p)
				}
				want, err := tab.Select(p.Nodes, p.PPN, p.MsgBytes)
				if err != nil {
					t.Fatalf("%v on %s: rule file incomplete at %v: %v", tc.c, tc.topo, p, err)
				}
				if alg != want {
					t.Fatalf("%v on %s at %v: server = %q, rule file = %q", tc.c, tc.topo, p, alg, want)
				}
			}
		})
	}
}

// TestServeDeterministic pins the whole pipeline's determinism: two
// identically seeded runs must serve identical selections everywhere.
func TestServeDeterministic(t *testing.T) {
	build := func() *map[coll.Collective]map[featspace.Point]string {
		tuner := New(testConfig(), liveBackend(t))
		results, err := tuner.TuneAll(nil)
		if err != nil {
			t.Fatal(err)
		}
		_, srv, _ := serve(t, tuner, results, "sim")
		out := make(map[coll.Collective]map[featspace.Point]string)
		for _, c := range coll.Collectives() {
			out[c] = make(map[featspace.Point]string)
			for _, p := range testSpace().Points() {
				alg, ok := srv.Lookup(c, p.Nodes, p.PPN, p.MsgBytes)
				if !ok {
					t.Fatalf("%v: miss at %v", c, p)
				}
				out[c][p] = alg
			}
		}
		return &out
	}
	a, b := build(), build()
	for c, pts := range *a {
		for p, alg := range pts {
			if other := (*b)[c][p]; other != alg {
				t.Fatalf("%v at %v: run 1 = %q, run 2 = %q", c, p, alg, other)
			}
		}
	}
}
