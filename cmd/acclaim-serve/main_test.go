package main

import (
	"strings"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// bcastOnlyRegistry serves one bcast table as the default tenant:
// binomial up to 4 KiB, ring allgather above. Every other collective
// is uncovered.
func bcastOnlyRegistry(t *testing.T) *ruleserver.Registry {
	t.Helper()
	f := rules.NewFile("serve-test")
	f.Tables[coll.Bcast.String()] = &rules.Table{
		Collective: coll.Bcast.String(),
		Buckets: []rules.NodeBucket{{MaxNodes: rules.Unbounded, PPNs: []rules.PPNBucket{
			{MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{
				{MaxMsg: 4096, Alg: "binomial"},
				{MaxMsg: rules.Unbounded, Alg: "scatter_ring_allgather"},
			}},
		}}},
	}
	reg := ruleserver.NewRegistry()
	if err := reg.Swap(ruleserver.DefaultTenant, f); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestAnswer pins the contract both query modes rely on: a covered
// query returns its algorithm, and an uncovered collective is an error
// just like a malformed field, so the process exits 1 on it.
func TestAnswer(t *testing.T) {
	reg := bcastOnlyRegistry(t)
	for _, tc := range []struct {
		name            string
		cs, ns, ps, ms  string
		want, wantError string
	}{
		{name: "hit small", cs: "bcast", ns: "16", ps: "8", ms: "64", want: "binomial"},
		{name: "hit large", cs: "bcast", ns: "16", ps: "8", ms: "65536", want: "scatter_ring_allgather"},
		{name: "uncovered collective", cs: "allreduce", ns: "4", ps: "2", ms: "1024", wantError: "no rule for collective"},
		{name: "unknown collective", cs: "sendrecv", ns: "4", ps: "2", ms: "1024", wantError: "sendrecv"},
		{name: "bad nodes", cs: "bcast", ns: "x", ps: "2", ms: "1024", wantError: "bad node count"},
		{name: "bad ppn", cs: "bcast", ns: "4", ps: "2.5", ms: "1024", wantError: "bad ppn"},
		{name: "bad msg", cs: "bcast", ns: "4", ps: "2", ms: "", wantError: "bad message size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := answer(reg, ruleserver.DefaultTenant, tc.cs, tc.ns, tc.ps, tc.ms)
			if tc.wantError != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantError) {
					t.Fatalf("answer = (%q, %v), want error containing %q", got, err, tc.wantError)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("answer = (%q, %v), want (%q, nil)", got, err, tc.want)
			}
		})
	}
}

// TestWithRules pins how -rules and -tenant combine into the tenant
// list: -rules is the default tenant, loaded first, and a key given
// twice is an error naming it rather than a silent replacement.
func TestWithRules(t *testing.T) {
	tenant := func(s string) tenantFlag {
		t.Helper()
		var l tenantList
		if err := l.Set(s); err != nil {
			t.Fatal(err)
		}
		return l[0]
	}
	a := tenant("a/b/c=a.json")
	a2 := tenant("a/b/c=other.json")
	x := tenant("x/y/z=x.json")
	def := tenant("default/default/default=d.json")
	rulesDefault := tenantFlag{key: ruleserver.DefaultTenant, path: "r.json"}
	for _, tc := range []struct {
		name      string
		rules     string
		tenants   tenantList
		want      tenantList
		wantError string
	}{
		{name: "rules only", rules: "r.json", want: tenantList{rulesDefault}},
		{name: "tenants only", tenants: tenantList{a, x}, want: tenantList{a, x}},
		{name: "rules first", rules: "r.json", tenants: tenantList{a}, want: tenantList{rulesDefault, a}},
		{name: "repeated tenant", tenants: tenantList{a, x, a2}, wantError: "tenant a/b/c given twice"},
		{name: "rules and default tenant", rules: "r.json", tenants: tenantList{def}, wantError: "tenant default/default/default given twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := withRules(tc.rules, tc.tenants)
			if tc.wantError != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantError) {
					t.Fatalf("withRules = (%v, %v), want error containing %q", got, err, tc.wantError)
				}
				return
			}
			if err != nil || got.String() != tc.want.String() {
				t.Fatalf("withRules = (%v, %v), want (%v, nil)", got, err, tc.want)
			}
		})
	}
}
