package experiments

import (
	"math/rand"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/sched"
)

// newRand returns a seeded RNG (a tiny alias that keeps figure code
// readable).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// planWaves schedules the specs on the allocation and returns the
// benchmarks-per-wave histogram (the Figure 13(b) series).
func planWaves(alloc cluster.Allocation, specs []benchmark.Spec) ([]int, error) {
	waves, err := sched.PlanAll(alloc, benchmark.WaveRequests(specs))
	if err != nil {
		return nil, err
	}
	return sched.Parallelism(waves), nil
}
