package traces

import (
	"errors"
	"math"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/featspace"
)

func TestAppsAndScales(t *testing.T) {
	if len(Apps()) != 4 {
		t.Fatalf("apps = %v, want 4 (the Figure 4 applications)", Apps())
	}
	if len(scales()) != 2 {
		t.Fatalf("scales = %v", scales())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	t1, err := Synthesize("AMG", 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Synthesize("AMG", 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Calls) != len(t2.Calls) {
		t.Fatal("non-deterministic call count")
	}
	for i := range t1.Calls {
		if t1.Calls[i] != t2.Calls[i] {
			t.Fatal("non-deterministic trace")
		}
	}
}

func TestSynthesizeUnknownApp(t *testing.T) {
	if _, err := Synthesize("hpl", 64, 1); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestParaDis1024Unavailable(t *testing.T) {
	_, err := Synthesize("ParaDis", 1024, 1)
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("ParaDis@1024 error = %v, want ErrUnavailable", err)
	}
	if _, err := Synthesize("ParaDis", 64, 1); err != nil {
		t.Errorf("ParaDis@64 should be available: %v", err)
	}
}

func TestNonP2FractionPerApp(t *testing.T) {
	// Per-app share must be positive, below 50%, and roughly stable
	// across scales (Figure 4: "nearly the same for both small- and
	// large-scale jobs").
	for _, app := range Apps() {
		t64, err := Synthesize(app, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		f64 := t64.NonP2Fraction()
		if f64 <= 0 || f64 >= 0.5 {
			t.Errorf("%s non-P2 share = %v", app, f64)
		}
		t1024, err := Synthesize(app, 1024, 42)
		if errors.Is(err, ErrUnavailable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		f1024 := t1024.NonP2Fraction()
		if math.Abs(f64-f1024) > 0.15 {
			t.Errorf("%s share varies too much across scales: %v vs %v", app, f64, f1024)
		}
	}
}

func TestAggregateNearPaper(t *testing.T) {
	rows := ProfileAll(42)
	agg := AggregateNonP2(rows)
	// The paper reports 15.7%; our generator should land in the same
	// neighbourhood.
	if agg < 0.10 || agg > 0.25 {
		t.Errorf("aggregate non-P2 share = %v, want ~0.157", agg)
	}
	// ParaDis@1024 must appear as unavailable.
	foundGap := false
	for _, r := range rows {
		if r.App == "ParaDis" && r.Nodes == 1024 {
			if r.Available {
				t.Error("ParaDis@1024 should be unavailable")
			}
			foundGap = true
		}
	}
	if !foundGap {
		t.Error("missing ParaDis@1024 row")
	}
	if len(rows) != 8 {
		t.Errorf("rows = %d, want 8 (4 apps x 2 scales)", len(rows))
	}
}

func TestCollectivesList(t *testing.T) {
	cs, err := Collectives("LAMMPS")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("empty collective list")
	}
	for _, c := range cs {
		found := false
		for _, all := range coll.Collectives() {
			if c == all {
				found = true
			}
		}
		if !found {
			t.Errorf("unknown collective %v", c)
		}
	}
	if _, err := Collectives("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestTraceAccessors(t *testing.T) {
	tr, err := Synthesize("Quicksilver", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalCalls() <= 0 {
		t.Error("no calls")
	}
	shares := tr.CollectiveShare()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("collective shares sum to %v", sum)
	}
	// Message sizes are positive multiples of the element size and the
	// calls are sorted by size.
	prev := 0
	for _, c := range tr.Calls {
		if c.MsgBytes <= 0 || c.MsgBytes%8 != 0 {
			t.Errorf("bad message size %d", c.MsgBytes)
		}
		if c.MsgBytes < prev {
			t.Error("calls not sorted")
		}
		prev = c.MsgBytes
	}
}

func TestP2CallsExist(t *testing.T) {
	// Most calls must still be P2 (the 84%): sanity for the mixture.
	tr, _ := Synthesize("AMG", 64, 7)
	p2 := 0
	for _, c := range tr.Calls {
		if featspace.IsP2(c.MsgBytes) {
			p2++
		}
	}
	if p2 == 0 {
		t.Error("no P2 call sites at all")
	}
}
