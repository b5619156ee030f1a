// Package stats implements the statistical machinery of the ACCLAiM
// paper: the jackknife variance estimate (Section IV-A, after Efron &
// Stein), the average-slowdown autotuner quality metric (Section II-C2)
// with its default convergence bound, and the stall detector that stops
// training on ACCLAiM's cumulative-variance criterion (Section VI-C).
package stats

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (average of the two central elements
// for even lengths). It panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// JackknifeVariance computes the jackknife variance of the values p
// exactly as laid out in Section IV-A of the paper:
//
//	x_p   = mean(p)
//	x_i   = mean of p with p_i removed
//	sigma² = Σ (x_p − x_i)² / (n − 1)
//
// For n < 2 the variance is 0 (a single prediction carries no spread).
//
// In ACCLAiM, p holds the per-tree predictions of a random-forest
// regressor at one candidate point (Wager et al.), so sigma² measures the
// model's uncertainty there.
func JackknifeVariance(p []float64) float64 {
	n := len(p)
	if n < 2 {
		return 0
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	xp := sum / float64(n)
	var acc float64
	for _, v := range p {
		// Mean with v removed: (sum - v)/(n-1). The deviation from the
		// full mean simplifies to (v - xp)/(n-1), but we follow the
		// paper's formulation literally for clarity.
		xi := (sum - v) / float64(n-1)
		d := xp - xi
		acc += d * d
	}
	return acc / float64(n-1)
}

// ErrMismatch is returned when paired slices differ in length.
var ErrMismatch = errors.New("stats: mismatched slice lengths")

// AvgSlowdown computes the paper's autotuner quality metric. selected[i]
// is the execution time of the algorithm the autotuner chose for test
// scenario i; optimal[i] is the execution time of the best algorithm for
// that scenario. The result is mean(selected/optimal) and is >= 1 when
// optimal really is optimal; 1.0 means every selection was perfect.
func AvgSlowdown(selected, optimal []float64) (float64, error) {
	if len(selected) != len(optimal) {
		return 0, ErrMismatch
	}
	if len(selected) == 0 {
		return 0, errors.New("stats: AvgSlowdown of empty inputs")
	}
	var s float64
	for i := range selected {
		if optimal[i] <= 0 {
			return 0, errors.New("stats: non-positive optimal time")
		}
		s += selected[i] / optimal[i]
	}
	return s / float64(len(selected)), nil
}

// ConvergenceCriterion is the paper's default average-slowdown bound: a
// model whose selections average no more than 3% slower than optimal is
// "good enough" to stop training.
const ConvergenceCriterion = 1.03

// StallDetector declares convergence when a noisy series stabilises: it
// compares the mean of the last Window samples with the mean of the
// Window before it and latches once the relative change (in either
// direction) falls below MinImprove. It is the noise-robust form of
// the paper's "four consecutive iterations with a small variance delta"
// criterion — retraining an ensemble adds mean-zero churn to the
// cumulative variance, so windowed means are compared instead of raw
// consecutive deltas, and a still-rising series (the model discovering
// new structure) blocks convergence just like a still-falling one.
//
// A StallDetector is safe for concurrent use: once the scoring sweep
// feeding it runs on a worker pool, the ledger and its convergence
// state become shared, and Observe may be called from multiple
// goroutines. With concurrent observers the *order* of observations is
// scheduling-dependent; deterministic runs should funnel observations
// through one goroutine (as the tuners do) and rely on the lock only
// as a guard rail.
type StallDetector struct {
	Window     int     // window length (default 5 when zero)
	MinImprove float64 // required relative change per window to keep training

	mu        sync.Mutex
	history   []float64 // guarded by mu
	converged bool      // guarded by mu
}

// Observe records a sample and returns true once improvement has
// stalled. Convergence latches.
func (d *StallDetector) Observe(v float64) bool {
	w := d.Window
	if w <= 0 {
		w = 5
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.history = append(d.history, v)
	if d.converged {
		return true
	}
	if len(d.history) < 2*w {
		return false
	}
	var cur, prev float64
	n := len(d.history)
	for i := n - w; i < n; i++ {
		cur += d.history[i]
	}
	for i := n - 2*w; i < n-w; i++ {
		prev += d.history[i]
	}
	cur /= float64(w)
	prev /= float64(w)
	if prev <= 0 {
		d.converged = true
		return true
	}
	if math.Abs(prev-cur)/prev < d.MinImprove {
		d.converged = true
	}
	return d.converged
}

// Converged reports whether the detector has latched.
func (d *StallDetector) Converged() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.converged
}

// History returns a copy of all observed samples in order.
func (d *StallDetector) History() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.history...)
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics. It panics on empty input.
func Summarize(xs []float64) Summary {
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	std := 0.0
	if len(xs) > 1 {
		std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return Summary{
		N:      len(xs),
		Mean:   m,
		Std:    std,
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
	}
}

// GeoMean returns the geometric mean of strictly positive values.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
