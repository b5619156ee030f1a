package rules

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"acclaim/internal/featspace"
)

// completeTable builds a small valid table by hand.
func completeTable() *Table {
	return &Table{
		Collective: "bcast",
		Buckets: []NodeBucket{
			{MaxNodes: 8, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 1024, Alg: "binomial"},
					{MaxMsg: Unbounded, Alg: "scatter_ring_allgather"},
				}},
			}},
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: 4, Rules: []MsgRule{{MaxMsg: Unbounded, Alg: "binomial"}}},
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 64, Alg: "binomial"},
					{MaxMsg: Unbounded, Alg: "scatter_recursive_doubling_allgather"},
				}},
			}},
		},
	}
}

func TestSelect(t *testing.T) {
	tab := completeTable()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		nodes, ppn, msg int
		want            string
	}{
		{2, 1, 8, "binomial"},
		{8, 32, 1024, "binomial"},
		{8, 32, 1025, "scatter_ring_allgather"},
		{9, 2, 1 << 20, "binomial"}, // second node bucket, small ppn
		{64, 16, 65536, "scatter_recursive_doubling_allgather"},
		{64, 16, 64, "binomial"},
	}
	for _, c := range cases {
		got, err := tab.Select(c.nodes, c.ppn, c.msg)
		if err != nil {
			t.Fatalf("Select(%d,%d,%d): %v", c.nodes, c.ppn, c.msg, err)
		}
		if got != c.want {
			t.Errorf("Select(%d,%d,%d) = %s, want %s", c.nodes, c.ppn, c.msg, got, c.want)
		}
	}
}

func TestValidateRejectsIncomplete(t *testing.T) {
	tab := completeTable()
	tab.Buckets[1].MaxNodes = 100 // no longer a catch-all
	if err := tab.Validate(); err == nil {
		t.Error("missing node catch-all not rejected")
	}

	tab = completeTable()
	tab.Buckets[0].PPNs[0].Rules[1].MaxMsg = 2048
	if err := tab.Validate(); err == nil {
		t.Error("missing msg catch-all not rejected")
	}

	tab = completeTable()
	tab.Buckets[1].PPNs[1].MaxPPN = 2 // descending after MaxPPN 4
	if err := tab.Validate(); err == nil {
		t.Error("non-ascending ppn thresholds not rejected")
	}

	tab = completeTable()
	tab.Buckets[0].PPNs[0].Rules[0].Alg = ""
	if err := tab.Validate(); err == nil {
		t.Error("empty algorithm not rejected")
	}

	if err := (&Table{Collective: "x"}).Validate(); err == nil {
		t.Error("empty table not rejected")
	}
}

func TestPruneMergesMsgRules(t *testing.T) {
	tab := &Table{
		Collective: "reduce",
		Buckets: []NodeBucket{{MaxNodes: Unbounded, PPNs: []PPNBucket{
			{MaxPPN: Unbounded, Rules: []MsgRule{
				{MaxMsg: 8, Alg: "binomial"},
				{MaxMsg: 64, Alg: "binomial"},
				{MaxMsg: 1024, Alg: "scatter_gather"},
				{MaxMsg: Unbounded, Alg: "scatter_gather"},
			}},
		}}},
	}
	tab.Prune()
	rs := tab.Buckets[0].PPNs[0].Rules
	if len(rs) != 2 {
		t.Fatalf("pruned rules = %v", rs)
	}
	if rs[0].MaxMsg != 64 || rs[1].MaxMsg != Unbounded {
		t.Errorf("pruned thresholds wrong: %v", rs)
	}
	if tab.NumRules() != 2 {
		t.Errorf("NumRules = %d", tab.NumRules())
	}
}

func TestPruneMergesBuckets(t *testing.T) {
	same := []MsgRule{{MaxMsg: Unbounded, Alg: "binomial"}}
	tab := &Table{
		Collective: "bcast",
		Buckets: []NodeBucket{
			{MaxNodes: 4, PPNs: []PPNBucket{{MaxPPN: Unbounded, Rules: append([]MsgRule(nil), same...)}}},
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: 8, Rules: append([]MsgRule(nil), same...)},
				{MaxPPN: Unbounded, Rules: append([]MsgRule(nil), same...)},
			}},
		},
	}
	tab.Prune()
	if len(tab.Buckets) != 1 {
		t.Fatalf("node buckets after prune = %d, want 1", len(tab.Buckets))
	}
	if len(tab.Buckets[0].PPNs) != 1 {
		t.Fatalf("ppn buckets after prune = %d, want 1", len(tab.Buckets[0].PPNs))
	}
	if err := tab.Validate(); err != nil {
		t.Errorf("pruned table invalid: %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := NewFile("theta-sim")
	f.Tables["bcast"] = completeTable()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != "theta-sim" || len(got.Tables) != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
	sel, err := got.Tables["bcast"].Select(8, 32, 1025)
	if err != nil || sel != "scatter_ring_allgather" {
		t.Errorf("Select after round trip = %s, %v", sel, err)
	}
}

func TestFileReadRejectsInvalid(t *testing.T) {
	bad := bytes.NewBufferString(`{"version":1,"tables":{"bcast":{"collective":"bcast","node_buckets":[]}}}`)
	if _, err := read(bad); err == nil {
		t.Error("invalid file accepted")
	}
	if _, err := read(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := NewFile("m").Validate(); err == nil {
		t.Error("empty file accepted")
	}
}

func TestWriteReadFile(t *testing.T) {
	f := NewFile("sim")
	f.Tables["bcast"] = completeTable()
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Error("version lost")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildTableSimpleCutover(t *testing.T) {
	space := featspace.Space{Nodes: []int{2, 4}, PPNs: []int{1, 2}, Msgs: []int{8, 16, 32, 64}}
	// Oracle: binomial below 32 bytes, ring from 32 up, for all cells —
	// including midpoints.
	sel := func(p featspace.Point) string {
		if p.MsgBytes < 32 {
			return "binomial"
		}
		return "ring"
	}
	tab := BuildTable("bcast", space, sel)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pruning should collapse identical cells to one bucket each.
	if len(tab.Buckets) != 1 || len(tab.Buckets[0].PPNs) != 1 {
		t.Errorf("identical cells not merged: %d node buckets", len(tab.Buckets))
	}
	for _, tc := range []struct {
		msg  int
		want string
	}{{8, "binomial"}, {23, "binomial"}, {31, "binomial"}, {32, "ring"}, {1 << 20, "ring"}} {
		got, err := tab.Select(2, 1, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Select(msg=%d) = %s, want %s", tc.msg, got, tc.want)
		}
	}
}

func TestBuildTableMidpointRegion(t *testing.T) {
	// Oracle with a distinct algorithm in the (16, 32) midpoint region:
	// the Figure 9 three-rule case.
	space := featspace.Space{Nodes: []int{2}, PPNs: []int{1}, Msgs: []int{16, 32}}
	sel := func(p featspace.Point) string {
		switch {
		case p.MsgBytes <= 16:
			return "a"
		case p.MsgBytes < 32:
			return "b"
		default:
			return "c"
		}
	}
	tab := BuildTable("bcast", space, sel)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	rs := tab.Buckets[0].PPNs[0].Rules
	if len(rs) != 3 {
		t.Fatalf("rules = %+v, want 3 (A/B/C regions)", rs)
	}
	for _, tc := range []struct {
		msg  int
		want string
	}{{10, "a"}, {16, "a"}, {17, "b"}, {31, "b"}, {32, "c"}, {999, "c"}} {
		got, _ := tab.Select(2, 1, tc.msg)
		if got != tc.want {
			t.Errorf("Select(msg=%d) = %s, want %s", tc.msg, got, tc.want)
		}
	}
}

func TestBuildTableMidpointMergesLeft(t *testing.T) {
	// Midpoint agrees with ALG-A: the first rule must extend to C-1.
	space := featspace.Space{Nodes: []int{2}, PPNs: []int{1}, Msgs: []int{16, 32}}
	sel := func(p featspace.Point) string {
		if p.MsgBytes < 32 {
			return "a"
		}
		return "c"
	}
	tab := BuildTable("bcast", space, sel)
	rs := tab.Buckets[0].PPNs[0].Rules
	if len(rs) != 2 {
		t.Fatalf("rules = %+v, want 2", rs)
	}
	if got, _ := tab.Select(2, 1, 31); got != "a" {
		t.Errorf("Select(31) = %s, want a", got)
	}
	if got, _ := tab.Select(2, 1, 32); got != "c" {
		t.Errorf("Select(32) = %s, want c", got)
	}
}

// Property: BuildTable over random step oracles always validates and
// reproduces the oracle at every grid point.
func TestBuildTableProperty(t *testing.T) {
	algs := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := featspace.Space{
			Nodes: []int{2, 4, 8},
			PPNs:  []int{1, 2},
			Msgs:  []int{8, 16, 32, 64, 128},
		}
		// Random monotone-region oracle per cell: pick a cutover and two algs.
		type cell struct {
			cut    int
			lo, hi string
		}
		cells := make(map[[2]int]cell)
		for _, n := range space.Nodes {
			for _, p := range space.PPNs {
				cells[[2]int{n, p}] = cell{
					cut: space.Msgs[rng.Intn(len(space.Msgs))],
					lo:  algs[rng.Intn(len(algs))],
					hi:  algs[rng.Intn(len(algs))],
				}
			}
		}
		lookup := func(pt featspace.Point) cell {
			n, p := featspace.NextP2(pt.Nodes), featspace.NextP2(pt.PPN)
			if n < 2 {
				n = 2
			}
			if n > 8 {
				n = 8
			}
			if p > 2 {
				p = 2
			}
			return cells[[2]int{n, p}]
		}
		sel := func(pt featspace.Point) string {
			c := lookup(pt)
			if pt.MsgBytes < c.cut {
				return c.lo
			}
			return c.hi
		}
		tab := BuildTable("bcast", space, sel)
		if tab.Validate() != nil {
			return false
		}
		for _, pt := range space.Points() {
			got, err := tab.Select(pt.Nodes, pt.PPN, pt.MsgBytes)
			if err != nil || got != sel(pt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBuildTableEmptyMsgs(t *testing.T) {
	space := featspace.Space{Nodes: []int{2}, PPNs: []int{1}}
	tab := BuildTable("bcast", space, func(featspace.Point) string { return "binomial" })
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.Select(2, 1, 12345); got != "binomial" {
		t.Errorf("Select = %s", got)
	}
}
