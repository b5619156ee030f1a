package core

import (
	"math"

	"acclaim/internal/featspace"
	"acclaim/internal/forest"
)

// Production returns the configuration a production job tunes with:
// a 60-tree forest, parallel collection waves of four benchmarks, and
// a stall criterion (Window 6, Epsilon 0.03) that spends a little more
// collection time than the defaults for a stabler model, since the
// selections feed a whole job. The forest and the tuner share seed.
//
// cmd/acclaim, the examples and every paper figure start from it; a
// caller sets only what it adds (a Recorder, a Registry, forest
// metrics) or the one knob a figure studies.
func Production(space featspace.Space, seed int64) Config {
	return Config{
		Space:     space,
		Forest:    forest.Config{NTrees: 60, Seed: seed},
		Seed:      seed,
		Parallel:  true,
		BatchSize: 4,
		Window:    6,
		Epsilon:   0.03,
	}
}

// BreakEvenHours is the application runtime, in hours, at which a
// tuning cost of machineTimeUS microseconds is paid back by a
// collective speedup s (Figure 15): the job saves R·(1−1/s), so it
// breaks even at R = T·s/(s−1). A speedup that is not above 1 never
// pays back, so the answer is +Inf.
func BreakEvenHours(machineTimeUS, s float64) float64 {
	if !(s > 1) {
		return math.Inf(1)
	}
	return machineTimeUS * s / (s - 1) / 1e6 / 3600
}
