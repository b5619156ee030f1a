// Package exhaustive implements the brute-force tuning strategy of
// production tools like Intel MPITune and OPTO (Chaarawi et al.), which
// the paper's Section I positions ML autotuners against: benchmark
// every algorithm at every scenario of interest and pick the winner.
// Selections are exact for the scenarios benchmarked, but the cost
// grows with the full scenario-algorithm cross product and nothing is
// learned about unseen scenarios — the paper's argument for ML.
package exhaustive

import (
	"fmt"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
)

// Result is a tuned scenario table for one collective.
type Result struct {
	Coll     coll.Collective
	Best     map[featspace.Point]string // winner per benchmarked scenario
	Ledger   autotune.Ledger
	Fallback func(featspace.Point) string // for scenarios never benchmarked
}

// Select returns the benchmarked winner, or the fallback (the library
// default, typically) for scenarios outside the tuned set.
func (r *Result) Select(p featspace.Point) string {
	if alg, ok := r.Best[p]; ok {
		return alg
	}
	if r.Fallback != nil {
		return r.Fallback(p)
	}
	return coll.AlgorithmNames(r.Coll)[0]
}

// Tune benchmarks every algorithm at every feasible scenario and
// records the winners: the lowest mean time, ties going to the first
// algorithm in registry order. The whole (scenario × algorithm) cross
// product goes to the backend as one batch, a single MeasureWave, so a
// live backend simulates it on all its host workers. A live backend
// places each benchmark where its scheduler puts it, as it does the
// tuner's own waves; a scenario that spans the whole allocation, like
// cmd/acclaim's job cell, has only one placement.
//
// The machine time charged is not the batch's wave total but the sum
// of every benchmark's wall time, in (scenario, algorithm) order: the
// full cross product run one by one, the cost that makes this strategy
// impractical at scale (Section I).
func Tune(backend autotune.WaveBackend, c coll.Collective, scenarios []featspace.Point,
	fallback func(featspace.Point) string) (*Result, error) {

	res := &Result{Coll: c, Best: make(map[featspace.Point]string, len(scenarios)), Fallback: fallback}
	algs := coll.AlgorithmNames(c)
	var specs []benchmark.Spec
	for _, p := range scenarios {
		if !p.Valid() || p.Nodes > backend.MaxNodes() {
			continue
		}
		for _, alg := range algs {
			specs = append(specs, benchmark.Spec{Coll: c, Alg: alg, Point: p})
		}
	}
	if len(specs) == 0 {
		return res, nil
	}
	ms, _, err := backend.MeasureWave(specs)
	if err != nil {
		return nil, fmt.Errorf("exhaustive: %w", err)
	}
	bySpec := make(map[benchmark.Spec]benchmark.Measurement, len(ms))
	for _, m := range ms {
		bySpec[m.Spec] = m
	}
	for i := 0; i < len(specs); i += len(algs) {
		bestAlg, bestT := "", 0.0
		for _, s := range specs[i : i+len(algs)] {
			m, ok := bySpec[s]
			if !ok {
				return nil, fmt.Errorf("exhaustive: backend returned no measurement for %v", s)
			}
			res.Ledger.Collection += m.WallTime
			if bestAlg == "" || m.MeanTime < bestT {
				bestAlg, bestT = s.Alg, m.MeanTime
			}
		}
		res.Best[specs[i].Point] = bestAlg
	}
	return res, nil
}
