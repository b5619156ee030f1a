package core

import (
	"math"
	"testing"
)

func TestBreakEvenHours(t *testing.T) {
	// One hour of tuning at a 1.01x speedup pays back after 101 hours.
	if got := BreakEvenHours(3.6e9, 1.01); math.Abs(got-101) > 1e-9 {
		t.Errorf("BreakEvenHours(1h, 1.01) = %v, want 101", got)
	}
	for _, s := range []float64{1, 0.9, 0, math.NaN()} {
		if got := BreakEvenHours(3.6e9, s); !math.IsInf(got, 1) {
			t.Errorf("BreakEvenHours(1h, %v) = %v, want +Inf", s, got)
		}
	}
}
