package ruleserver_test

import (
	"strings"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
	"acclaim/internal/ruleserver"
)

// defaultPrefix is the metric-name prefix Registry.Register gives the
// default tenant's series.
const defaultPrefix = "ruleserver.tenant.default_default_default."

// TestRegisterMatchesStats pins the metrics contract: a tenant's
// registry series and its shard's Stats() view read the same per-epoch
// counters, so they must always agree — including after a hot swap
// resets the epoch.
func TestRegisterMatchesStats(t *testing.T) {
	rreg := ruleserver.NewRegistry()
	if err := rreg.Swap(ruleserver.DefaultTenant, fixtureFile()); err != nil {
		t.Fatal(err)
	}
	srv, _ := rreg.Tenant(ruleserver.DefaultTenant)
	reg := obs.NewRegistry()
	rreg.Register(reg)

	check := func(when string) {
		t.Helper()
		st := srv.Stats()
		snap := reg.Snapshot()
		want := map[string]float64{
			"lookups":          float64(st.Hits + st.Misses),
			"hits":             float64(st.Hits),
			"misses":           float64(st.Misses),
			"snapshot_version": float64(st.Version),
			"tables":           float64(st.Tables),
			"rules":            float64(st.Rules),
			"swaps_total":      float64(st.Swaps),
		}
		for name, w := range want {
			if got := snap[defaultPrefix+name]; got != w {
				t.Errorf("%s: %s = %v, want %v (stats %+v)", when, name, got, w, st)
			}
		}
		lat, ok := snap[defaultPrefix+"lookup_latency_ns"].(obs.HDRSnapshot)
		if !ok {
			t.Fatalf("%s: lookup_latency_ns is %T", when, snap[defaultPrefix+"lookup_latency_ns"])
		}
		// Every lookup is recorded: the histogram population equals the
		// lookup counters exactly.
		if lat.Count != uint64(st.Hits+st.Misses) {
			t.Errorf("%s: latency samples %d != lookups %d", when, lat.Count, st.Hits+st.Misses)
		}
		// Per-collective counters roll up to the totals, and match the
		// Stats rows.
		var perLookups, perMisses float64
		for _, c := range coll.Collectives() {
			perLookups += snap[defaultPrefix+c.String()+".lookups"].(float64)
			perMisses += snap[defaultPrefix+c.String()+".misses"].(float64)
		}
		if perLookups != float64(st.Hits+st.Misses) || perMisses != float64(st.Misses) {
			t.Errorf("%s: per-collective rollup %v/%v != totals %d/%d",
				when, perLookups, perMisses, st.Hits+st.Misses, st.Misses)
		}
		for _, cs := range st.PerCollective {
			if got := snap[defaultPrefix+cs.Collective+".lookups"]; got != float64(cs.Lookups) {
				t.Errorf("%s: %s.lookups = %v, Stats row %+v", when, cs.Collective, got, cs)
			}
		}
		if got := snap["ruleserver.registry.lookups"]; got != float64(st.Hits+st.Misses) {
			t.Errorf("%s: registry.lookups = %v, want %d", when, got, st.Hits+st.Misses)
		}
	}

	check("fresh")
	for i := 0; i < 500; i++ {
		srv.Lookup(coll.Bcast, 4, 2, 256)     // hit
		srv.Lookup(coll.Allreduce, 4, 2, 256) // miss: not in fixture
	}
	if st := srv.Stats(); st.Hits != 500 || st.Misses != 500 {
		t.Fatalf("stats = %+v, want 500 hits / 500 misses", st)
	}
	check("after traffic")

	// Swap starts a new epoch: both views must read zero lookup counters
	// and the bumped version, with no re-Register needed.
	if err := rreg.Swap(ruleserver.DefaultTenant, fixtureFile()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Version != 2 {
		t.Fatalf("post-swap stats = %+v", st)
	}
	check("after swap")

	srv.Lookup(coll.Bcast, 4, 2, 256)
	check("new epoch traffic")
}

// TestRegisterPrometheus smoke-checks that every tenant's series render
// on the /metrics endpoint acclaim-serve exposes, each under its own
// label, latency histogram included.
func TestRegisterPrometheus(t *testing.T) {
	rreg := ruleserver.NewRegistry()
	other := ruleserver.TenantKey{Cluster: "t0", JobClass: "default", MPIVer: "default"}
	for _, k := range []ruleserver.TenantKey{ruleserver.DefaultTenant, other} {
		if err := rreg.Swap(k, fixtureFile()); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	rreg.Register(reg)
	rreg.Lookup(ruleserver.DefaultTenant, coll.Bcast, 4, 2, 256)
	rreg.Lookup(other, coll.Reduce, 4, 2, 256)
	rreg.Lookup(other, coll.Gather, 4, 2, 256)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ruleserver_tenant_default_default_default_lookups 1",
		"ruleserver_tenant_default_default_default_hits 1",
		"ruleserver_tenant_default_default_default_misses 0",
		"ruleserver_tenant_default_default_default_snapshot_version 1",
		"ruleserver_tenant_default_default_default_tables 2",
		"ruleserver_tenant_default_default_default_bcast_lookups 1",
		"# TYPE ruleserver_tenant_default_default_default_lookup_latency_ns histogram",
		"ruleserver_tenant_t0_default_default_lookups 2",
		"ruleserver_tenant_t0_default_default_misses 1",
		"ruleserver_tenant_t0_default_default_gather_misses 1",
		"ruleserver_tenant_t0_default_default_lookup_latency_ns_count 2",
		"ruleserver_registry_lookups 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestRegisterNilRegistry pins that Register on a nil registry is a
// no-op rather than a panic.
func TestRegisterNilRegistry(t *testing.T) {
	rreg := ruleserver.NewRegistry()
	if err := rreg.Swap(ruleserver.DefaultTenant, fixtureFile()); err != nil {
		t.Fatal(err)
	}
	rreg.Register(nil)
}
