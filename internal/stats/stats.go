// Package stats implements the statistics the tuners share: mean and
// median, the paper's default average-slowdown convergence bound
// (Section II-C2), and the stall detector that stops training on
// ACCLAiM's cumulative-variance criterion (Section VI-C). The jackknife
// variance estimate (Section IV-A) is computed by forest.Kernel.ScoreFlat.
package stats

import (
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
