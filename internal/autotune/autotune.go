// Package autotune is the shared scaffolding under every collective
// autotuner in this repository (ACCLAiM in internal/core and the two
// prior-work baselines in internal/fact and internal/hunold): benchmark
// backends, candidate enumeration, training-sample bookkeeping, model
// wrappers over the random forest, and the average-slowdown evaluation
// harness of Section II-C2.
package autotune

import (
	"errors"
	"fmt"
	"math"

	"acclaim/internal/benchmark"
	"acclaim/internal/coll"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
)

// Backend supplies microbenchmark measurements. Implementations include
// the live simulator (LiveBackend) and dataset replay (dataset.Replay).
type Backend interface {
	// Measure runs (or replays) one microbenchmark.
	Measure(spec benchmark.Spec) (benchmark.Measurement, error)
	// MaxNodes is the largest node count a benchmark may request.
	MaxNodes() int
}

// WaveBackend additionally collects batches of benchmarks as
// topology-scheduled parallel waves, returning the total machine time
// (sum of per-wave maxima) alongside the measurements.
type WaveBackend interface {
	Backend
	MeasureWave(specs []benchmark.Spec) ([]benchmark.Measurement, float64, error)
}

// LiveBackend adapts a benchmark.Runner to the Backend interfaces.
type LiveBackend struct {
	Runner *benchmark.Runner
}

// Measure runs one benchmark on the live simulator.
func (b LiveBackend) Measure(spec benchmark.Spec) (benchmark.Measurement, error) {
	return b.Runner.Run(spec)
}

// MaxNodes returns the runner allocation's size.
func (b LiveBackend) MaxNodes() int { return b.Runner.MaxNodes() }

// MeasureWave schedules the specs topology-aware and runs them in
// parallel waves.
func (b LiveBackend) MeasureWave(specs []benchmark.Spec) ([]benchmark.Measurement, float64, error) {
	ms, total, _, err := b.Runner.RunParallel(specs)
	return ms, total, err
}

// Candidate is a potential training point: a feature point plus the
// algorithm to force.
type Candidate struct {
	Point  featspace.Point
	Alg    string
	AlgIdx int
}

// Spec converts the candidate to a benchmark spec for a collective.
func (c Candidate) Spec(cl coll.Collective) benchmark.Spec {
	return benchmark.Spec{Coll: cl, Alg: c.Alg, Point: c.Point}
}

// Candidates enumerates every (point, algorithm) pair of a collective
// over the grid, skipping points that are invalid or exceed maxNodes.
// The order is deterministic: points in grid order, algorithms in
// registry order.
func Candidates(cl coll.Collective, space featspace.Space, maxNodes int) []Candidate {
	algs := coll.AlgorithmNames(cl)
	out := make([]Candidate, 0, space.Size()*len(algs))
	for _, p := range space.Points() {
		if !p.Valid() || p.Nodes > maxNodes {
			continue
		}
		for ai, a := range algs {
			out = append(out, Candidate{Point: p, Alg: a, AlgIdx: ai})
		}
	}
	return out
}

// Sample is one collected training observation.
type Sample struct {
	Candidate Candidate
	Mean      float64 // measured mean collective time (us)
	Wall      float64 // machine time its collection cost (us)
}

// TrainingSet accumulates samples for one collective and renders the
// design matrix. Targets are log(time): collective times span five
// orders of magnitude across the feature space, and trees fit the log
// scale far better.
type TrainingSet struct {
	Coll    coll.Collective
	Samples []Sample
	have    map[benchmark.Spec]bool
}

// NewTrainingSet returns an empty training set for a collective.
func NewTrainingSet(cl coll.Collective) *TrainingSet {
	return &TrainingSet{Coll: cl, have: make(map[benchmark.Spec]bool)}
}

// Add appends a sample.
func (ts *TrainingSet) Add(c Candidate, mean, wall float64) {
	ts.Samples = append(ts.Samples, Sample{Candidate: c, Mean: mean, Wall: wall})
	ts.have[c.Spec(ts.Coll)] = true
}

// AddSample appends a pre-built sample.
func (ts *TrainingSet) AddSample(s Sample) {
	ts.Samples = append(ts.Samples, s)
	ts.have[s.Candidate.Spec(ts.Coll)] = true
}

// Has reports whether the candidate was already collected.
func (ts *TrainingSet) Has(c Candidate) bool { return ts.have[c.Spec(ts.Coll)] }

// Len returns the number of samples.
func (ts *TrainingSet) Len() int { return len(ts.Samples) }

// FillMatrix renders the unified design into a flat featspace.Matrix
// (rows reuse m's backing buffer across rounds) and returns the
// log-time targets — the zero-copy input of forest.TrainMatrix, which
// bins columns straight off the flat buffer. Row i is sample i's
// features with its algorithm index last.
func (ts *TrainingSet) FillMatrix(m *featspace.Matrix) (y []float64) {
	m.Reset(featspace.NumFeatures)
	y = make([]float64, len(ts.Samples))
	for i, s := range ts.Samples {
		m.AppendPoint(s.Candidate.Point, s.Candidate.AlgIdx)
		y[i] = math.Log(s.Mean)
	}
	return y
}

// FillMatrixForAlg is FillMatrix restricted to one algorithm, without
// the algorithm feature (the per-algorithm model design). It returns
// nil targets and leaves m empty when the algorithm has no samples.
func (ts *TrainingSet) FillMatrixForAlg(m *featspace.Matrix, alg string) (y []float64) {
	m.Reset(featspace.NumFeatures - 1)
	for _, s := range ts.Samples {
		if s.Candidate.Alg != alg {
			continue
		}
		m.AppendPoint(s.Candidate.Point)
		y = append(y, math.Log(s.Mean))
	}
	return y
}

// Model is a trained unified model for one collective: a single forest
// with the algorithm index as an input feature (ACCLAiM's design,
// Section V), held as its compiled inference kernel. A Model is
// immutable and safe for concurrent scoring.
type Model struct {
	Coll coll.Collective
	kern *forest.Kernel
}

// TrainModel fits the unified model on a training set and compiles its
// inference kernel (tuners retrain every round, so the compile cost is
// paid exactly once per round).
func TrainModel(cfg forest.Config, ts *TrainingSet) (*Model, error) {
	var x featspace.Matrix
	y := ts.FillMatrix(&x)
	f, err := forest.TrainMatrix(cfg, &x, y)
	if err != nil {
		return nil, err
	}
	return &Model{Coll: ts.Coll, kern: f.Compile()}, nil
}

// PredictTime returns the predicted collective time in microseconds for
// an algorithm (by index) at a point.
func (m *Model) PredictTime(p featspace.Point, algIdx int) float64 {
	return math.Exp(m.kern.Predict(featspace.Features(p, algIdx)))
}

// Arena holds a scoring call site's reusable buffers: the flat
// candidate feature matrix and the kernel output vector. Tuners keep
// one Arena across rounds (the builder-arena pattern forest training
// uses for its scratch), so steady-state sweeps re-encode and re-score
// the pool without allocating. Slices returned by the *Into methods
// alias the arena and are valid until its next use. An Arena must not
// be shared between goroutines.
type Arena struct {
	x   featspace.Matrix
	out []float64
}

// grow returns a length-n slice, reusing s's backing array when it is
// large enough.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// VarianceBatchInto returns the jackknife variance of the model's
// (log-scale) prediction for every candidate — the uncertainty signal
// ACCLAiM selects training points by — in one fused kernel sweep over
// the arena's buffers. The result is identical for every worker count;
// the returned slice aliases the arena.
func (m *Model) VarianceBatchInto(a *Arena, cands []Candidate) []float64 {
	a.x.Reset(m.kern.NumFeatures())
	for _, c := range cands {
		a.x.AppendPoint(c.Point, c.AlgIdx)
	}
	a.out = grow(a.out, len(cands))
	m.kern.ScoreFlat(a.x.Data(), nil, a.out)
	return a.out
}

// Select returns the algorithm with the lowest predicted time at p.
func (m *Model) Select(p featspace.Point) string {
	algs := coll.AlgorithmNames(m.Coll)
	best, bestT := algs[0], math.Inf(1)
	for ai, a := range algs {
		if t := m.PredictTime(p, ai); t < bestT {
			best, bestT = a, t
		}
	}
	return best
}

// SelectBatch returns Select for every point, with one batched forest
// sweep per algorithm instead of one tree walk per (point, algorithm).
// Ties resolve exactly as Select does: exp is strictly monotone, so
// comparing log-scale predictions picks the same first-lowest
// algorithm.
// The points are encoded into one flat matrix once; per algorithm only
// the trailing algorithm-index column is rewritten before the kernel
// sweep.
func (m *Model) SelectBatch(pts []featspace.Point) []string {
	algs := coll.AlgorithmNames(m.Coll)
	best := make([]string, len(pts))
	bestT := make([]float64, len(pts))
	for i := range bestT {
		best[i] = algs[0]
		bestT[i] = math.Inf(1)
	}
	nf := m.kern.NumFeatures()
	var x featspace.Matrix
	x.Reset(nf)
	for _, p := range pts {
		x.AppendPoint(p, 0)
	}
	preds := make([]float64, len(pts))
	for ai, a := range algs {
		x.SetCol(nf-1, float64(ai))
		m.kern.PredictFlat(x.Data(), preds)
		for i, t := range preds {
			if t < bestT[i] {
				best[i], bestT[i] = a, t
			}
		}
	}
	return best
}

// PerAlgModel is the prior works' design: one forest per algorithm
// (Hunold et al., Section II-C1), each held as its compiled inference
// kernel. The kernel map is built by TrainPerAlg and read-only after,
// so a PerAlgModel is safe for concurrent scoring.
type PerAlgModel struct {
	Coll    coll.Collective
	kernels map[string]*forest.Kernel // by algorithm; absent = no samples
}

// TrainPerAlg fits one forest per algorithm that has samples and
// compiles each into its inference kernel. Algorithms with no samples
// are absent and never selected.
func TrainPerAlg(cfg forest.Config, ts *TrainingSet) (*PerAlgModel, error) {
	m := &PerAlgModel{Coll: ts.Coll, kernels: make(map[string]*forest.Kernel)}
	var x featspace.Matrix
	for _, alg := range coll.AlgorithmNames(ts.Coll) {
		y := ts.FillMatrixForAlg(&x, alg)
		if len(y) == 0 {
			continue
		}
		f, err := forest.TrainMatrix(cfg, &x, y)
		if err != nil {
			return nil, fmt.Errorf("autotune: training %s/%s: %w", ts.Coll, alg, err)
		}
		m.kernels[alg] = f.Compile()
	}
	if len(m.kernels) == 0 {
		return nil, errors.New("autotune: no algorithm has training samples")
	}
	return m, nil
}

// Select queries every per-algorithm model and picks the lowest
// predicted time, as the baseline autotuners do.
func (m *PerAlgModel) Select(p featspace.Point) string {
	feats := featspace.Features(p)
	best := ""
	bestT := math.Inf(1)
	for _, alg := range coll.AlgorithmNames(m.Coll) {
		k, ok := m.kernels[alg]
		if !ok {
			continue
		}
		if t := k.Predict(feats); t < bestT {
			best, bestT = alg, t
		}
	}
	return best
}

// SelectBatch returns Select for every point with one compiled-kernel
// sweep per algorithm over a single flat feature matrix. Results match
// Select exactly, including tie handling (algorithms are visited in
// registry order in both).
func (m *PerAlgModel) SelectBatch(pts []featspace.Point) []string {
	var x featspace.Matrix
	x.Reset(featspace.NumFeatures - 1) // per-alg models see no algorithm feature
	for _, p := range pts {
		x.AppendPoint(p)
	}
	best := make([]string, len(pts))
	bestT := make([]float64, len(pts))
	for i := range bestT {
		bestT[i] = math.Inf(1)
	}
	preds := make([]float64, len(pts))
	for _, alg := range coll.AlgorithmNames(m.Coll) {
		k, ok := m.kernels[alg]
		if !ok {
			continue
		}
		k.PredictFlat(x.Data(), preds)
		for i, t := range preds {
			if t < bestT[i] {
				best[i], bestT[i] = alg, t
			}
		}
	}
	return best
}

// Selector is anything that picks an algorithm for a feature point —
// trained models, rule tables, and static heuristics all qualify.
type Selector interface {
	Select(p featspace.Point) string
}

// SelectorFunc adapts a function to the Selector interface.
type SelectorFunc func(p featspace.Point) string

// Select implements Selector.
func (f SelectorFunc) Select(p featspace.Point) string { return f(p) }

// BatchSelector is a Selector that can answer many points in one call,
// typically by fanning forest walks across a worker pool. SelectBatch
// must return exactly what point-by-point Select calls would.
type BatchSelector interface {
	Selector
	SelectBatch(pts []featspace.Point) []string
}

// selections resolves the chosen algorithm for every point, using the
// batched path when the selector supports it.
func selections(sel Selector, pts []featspace.Point) []string {
	if bs, ok := sel.(BatchSelector); ok {
		return bs.SelectBatch(pts)
	}
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = sel.Select(p)
	}
	return out
}

// EvalSlowdown computes the paper's average-slowdown metric for a
// selector over the test points, with ground truth from the dataset:
// mean over points of time(selected)/time(best). Points with no dataset
// entry for the selected algorithm are an error — the selector chose
// something the ground truth cannot price.
func EvalSlowdown(ds *dataset.Dataset, cl coll.Collective, pts []featspace.Point, sel Selector) (float64, error) {
	if len(pts) == 0 {
		return 0, errors.New("autotune: no evaluation points")
	}
	// Restrict to benchmarked points first, so selectors are only ever
	// queried where ground truth exists (as the per-point loop did).
	var kept []featspace.Point
	var bests []float64
	for _, p := range pts {
		if _, best, ok := ds.Best(cl, p); ok {
			kept = append(kept, p)
			bests = append(bests, best)
		}
	}
	if len(kept) == 0 {
		return 0, errors.New("autotune: no evaluation points present in dataset")
	}
	algs := selections(sel, kept)
	var sum float64
	for i, p := range kept {
		got, ok := ds.TimeOf(cl, algs[i], p)
		if !ok {
			return 0, fmt.Errorf("autotune: dataset has no %v/%s at %v", cl, algs[i], p)
		}
		sum += got / bests[i]
	}
	return sum / float64(len(kept)), nil
}

// Ledger tracks the machine time an autotuner's training consumed, the
// quantity on the x-axis of Figures 10 and 12 and the one Figure 14
// reports for production runs.
type Ledger struct {
	Collection float64 // machine time spent collecting training data (us)
	Testing    float64 // machine time spent collecting test data (us)
}

// Total returns collection plus testing time.
func (l Ledger) Total() float64 { return l.Collection + l.Testing }

// TracePoint records one training iteration's state, feeding the
// time-series figures (7, 10, 12).
type TracePoint struct {
	Iter           int
	Samples        int
	CollectionTime float64 // cumulative machine time so far (us)
	CumVariance    float64 // cumulative jackknife variance (NaN if untracked)
	Slowdown       float64 // avg slowdown at this iteration (NaN if unevaluated)
}

// CurvePoint is one point of a data-efficiency learning curve
// (Figures 3 and 5): model quality as a function of training set size.
type CurvePoint struct {
	Fraction       float64 // of the candidate pool used for training
	Samples        int
	CollectionTime float64 // machine time those samples cost (us)
	Slowdown       float64
}

// LearningCurve trains a model on growing prefixes of a fixed selection
// order and evaluates each, producing the paper's
// slowdown-vs-training-data curves. fracs are fractions of len(order);
// prefixes of fewer than two samples are skipped.
func LearningCurve(cl coll.Collective, order []Sample, fracs []float64,
	train func(*TrainingSet) (Selector, error),
	eval func(Selector) (float64, error)) ([]CurvePoint, error) {

	var out []CurvePoint
	for _, frac := range fracs {
		k := int(math.Round(frac * float64(len(order))))
		if k < 2 {
			continue
		}
		if k > len(order) {
			k = len(order)
		}
		ts := NewTrainingSet(cl)
		var wall float64
		for _, s := range order[:k] {
			ts.AddSample(s)
			wall += s.Wall
		}
		sel, err := train(ts)
		if err != nil {
			return nil, err
		}
		sd, err := eval(sel)
		if err != nil {
			return nil, err
		}
		out = append(out, CurvePoint{Fraction: frac, Samples: k, CollectionTime: wall, Slowdown: sd})
	}
	return out, nil
}
