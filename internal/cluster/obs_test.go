package cluster

import (
	"math/rand"
	"testing"

	"acclaim/internal/obs"
)

func TestBestEffortObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	rng := rand.New(rand.NewSource(7))
	m := Theta()

	const draws = 5
	for i := 0; i < draws; i++ {
		a, err := BestEffortObs(m, rng, 16, met)
		if err != nil {
			t.Fatal(err)
		}
		if a.Size() != 16 {
			t.Fatalf("allocation size = %d, want 16", a.Size())
		}
	}
	if got := met.Allocations.Load(); got != draws {
		t.Errorf("allocations_total = %d, want %d", got, draws)
	}
	rs := met.RackSpan.Snapshot()
	if rs.Count != draws {
		t.Errorf("rack_span observations = %d, want %d", rs.Count, draws)
	}
	if rs.Sum < draws { // every allocation touches at least one rack
		t.Errorf("rack_span sum = %v, want >= %d", rs.Sum, draws)
	}
	if ps := met.PairSpan.Snapshot(); ps.Count != draws {
		t.Errorf("pair_span observations = %d, want %d", ps.Count, draws)
	}
}

// TestBestEffortObsFailedDraw pins that a failed allocation records
// nothing: the histograms describe allocations that exist.
func TestBestEffortObsFailedDraw(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	if _, err := BestEffortObs(Theta(), rand.New(rand.NewSource(1)), 1<<20, met); err == nil {
		t.Fatal("oversized allocation succeeded")
	}
	if met.Allocations.Load() != 0 || met.RackSpan.Snapshot().Count != 0 {
		t.Error("failed allocation was recorded")
	}
}
