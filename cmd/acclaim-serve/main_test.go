package main

import (
	"strings"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// bcastOnlyServer serves one bcast table: binomial up to 4 KiB, ring
// allgather above. Every other collective is uncovered.
func bcastOnlyServer(t *testing.T) *ruleserver.Server {
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
	srv, err := ruleserver.NewFromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestAnswer pins the contract both query modes rely on: a covered
// query returns its algorithm, and an uncovered collective is an error
// just like a malformed field, so the process exits 1 on it.
func TestAnswer(t *testing.T) {
	srv := bcastOnlyServer(t)
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
			got, err := answer(srv, tc.cs, tc.ns, tc.ps, tc.ms)
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
