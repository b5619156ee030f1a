package stats

import (
	"math"
	"sync"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if m := Mean(xs); !almostEq(m, 2.8, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if m := Median(xs); m != 3 {
		t.Errorf("Median = %v", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even Median = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

// TestStallDetector pins the windowed rule: no verdict before two full
// windows, a still-falling series keeps training, a flat pair of
// windows latches, and the latch survives a later jump.
func TestStallDetector(t *testing.T) {
	d := &StallDetector{Window: 2, MinImprove: 0.05}
	for i, v := range []float64{10, 8, 6, 4, 3.9, 3.8} {
		// Adjacent window means move 9 -> 5, 7 -> 3.95, 5 -> 3.85: each
		// change is far above 5 %.
		if d.Observe(v) {
			t.Fatalf("converged at sample %d of a still-falling series", i)
		}
	}
	if !d.Observe(3.9) { // 3.95 -> 3.85, a 2.5 % change
		t.Fatal("flat windows did not converge")
	}
	if !d.Observe(100) {
		t.Fatal("convergence should latch")
	}
	if got := len(d.history); got != 8 {
		t.Errorf("history length = %d, want 8", got)
	}
}

// --- Concurrency: once scoring runs on a worker pool, the autotune
// ledger and its convergence detector become shared state. This test
// hammers the detector from many goroutines; run with -race.

func TestStallDetectorConcurrent(t *testing.T) {
	d := &StallDetector{Window: 5, MinImprove: 0.05}
	const goroutines = 8
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// A flat series stalls by definition under any
				// interleaving.
				d.Observe(10.0)
				_ = d.Converged()
			}
		}()
	}
	wg.Wait()
	if !d.Converged() {
		t.Error("flat series did not stall")
	}
	if got := len(d.history); got != goroutines*perG {
		t.Errorf("history length = %d, want %d", got, goroutines*perG)
	}
}
