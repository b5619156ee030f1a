package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if m := Mean(xs); !almostEq(m, 2.8, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if m := Min(xs); m != 1 {
		t.Errorf("Min = %v", m)
	}
	if m := Max(xs); m != 5 {
		t.Errorf("Max = %v", m)
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

func TestJackknifeVarianceKnown(t *testing.T) {
	// For p = (0, 2): xp = 1, x1 = 2, x2 = 0; sigma^2 = ((1-2)^2 + (1-0)^2)/1 = 2.
	if v := JackknifeVariance([]float64{0, 2}); !almostEq(v, 2, 1e-12) {
		t.Errorf("JackknifeVariance(0,2) = %v, want 2", v)
	}
	// Identical predictions carry zero variance.
	if v := JackknifeVariance([]float64{5, 5, 5, 5}); v != 0 {
		t.Errorf("constant variance = %v, want 0", v)
	}
	if v := JackknifeVariance([]float64{7}); v != 0 {
		t.Errorf("singleton variance = %v, want 0", v)
	}
	if v := JackknifeVariance(nil); v != 0 {
		t.Errorf("empty variance = %v, want 0", v)
	}
}

// The jackknife deviation simplifies algebraically: x_p - x_i = (p_i - x_p)/(n-1),
// so sigma^2 = sum (p_i - x_p)^2 / (n-1)^3. Check the implementation against
// this closed form on random inputs.
func TestJackknifeVarianceClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64() * 10
		}
		got := JackknifeVariance(p)
		xp := Mean(p)
		var ss float64
		for _, v := range p {
			ss += (v - xp) * (v - xp)
		}
		want := ss / math.Pow(float64(n-1), 3)
		return almostEq(got, want, 1e-9*(1+want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: jackknife variance is translation invariant and scales with c^2.
func TestJackknifeVarianceScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		p := make([]float64, n)
		q := make([]float64, n)
		r := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64()
			q[i] = p[i] + 100
			r[i] = 3 * p[i]
		}
		vp, vq, vr := JackknifeVariance(p), JackknifeVariance(q), JackknifeVariance(r)
		return almostEq(vp, vq, 1e-9*(1+vp)) && almostEq(vr, 9*vp, 1e-9*(1+vr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvgSlowdown(t *testing.T) {
	got, err := AvgSlowdown([]float64{10, 20}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1.5, 1e-12) {
		t.Errorf("AvgSlowdown = %v, want 1.5", got)
	}
	if _, err := AvgSlowdown([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want mismatch error")
	}
	if _, err := AvgSlowdown(nil, nil); err == nil {
		t.Error("want empty error")
	}
	if _, err := AvgSlowdown([]float64{1}, []float64{0}); err == nil {
		t.Error("want non-positive optimal error")
	}
}

// Property: slowdown of optimal selections is exactly 1, and any other
// selection can only increase it.
func TestAvgSlowdownOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		opt := make([]float64, n)
		sel := make([]float64, n)
		for i := range opt {
			opt[i] = 1 + rng.Float64()*100
			sel[i] = opt[i] * (1 + rng.Float64())
		}
		perfect, err1 := AvgSlowdown(opt, opt)
		worse, err2 := AvgSlowdown(sel, opt)
		return err1 == nil && err2 == nil && almostEq(perfect, 1, 1e-12) && worse >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEq(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %v", s.Std)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); !almostEq(g, 2, 1e-12) {
		t.Errorf("GeoMean(1,4) = %v", g)
	}
	if g := GeoMean([]float64{2, -1}); g != 0 {
		t.Errorf("GeoMean with non-positive = %v, want 0", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
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
	if got := len(d.History()); got != 8 {
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
				_ = d.History()
			}
		}()
	}
	wg.Wait()
	if !d.Converged() {
		t.Error("flat series did not stall")
	}
	if got := len(d.History()); got != goroutines*perG {
		t.Errorf("history length = %d, want %d", got, goroutines*perG)
	}
}

// TestHistoryIsACopy: History must hand back a snapshot, not the live
// backing array a concurrent Observe could be appending to.
func TestHistoryIsACopy(t *testing.T) {
	d := &StallDetector{}
	d.Observe(5)
	h := d.History()
	h[0] = -1
	if d.History()[0] != 5 {
		t.Error("History returned the live slice, not a copy")
	}
}
