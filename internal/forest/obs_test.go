package forest

import (
	"testing"

	"acclaim/internal/obs"
)

func TestTrainMetrics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		met := NewMetrics(reg)
		x, y := grid2d(6, func(a, b float64) float64 { return a + b })

		f, err := trainRows(Config{Seed: 9, NTrees: 12, Workers: workers, Metrics: met}, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := met.Trains.Load(); got != 1 {
			t.Errorf("workers=%d: trains_total = %d, want 1", workers, got)
		}
		if got := met.Trees.Load(); got != 12 {
			t.Errorf("workers=%d: trees_total = %d, want 12", workers, got)
		}
		if got := met.Workers.Load(); got != float64(workers) {
			t.Errorf("workers=%d: train_workers = %v", workers, got)
		}
		fit := met.TreeFitNs.Snapshot()
		if fit.Count != 12 {
			t.Errorf("workers=%d: tree_fit_ns observations = %d, want 12", workers, fit.Count)
		}
		if met.TrainNs.Count() != 1 {
			t.Errorf("workers=%d: train_ns observations = %d, want 1", workers, met.TrainNs.Count())
		}
		// Summed per-tree time can never exceed workers x wall time; with
		// one worker they describe the same serial interval.
		busy, wall := met.PoolBusyNs.Load(), met.TrainNs.Sum()
		if busy <= 0 || busy > wall*float64(workers)*1.5 {
			t.Errorf("workers=%d: pool_busy_ns = %v vs train_ns %v", workers, busy, wall)
		}
		if f == nil {
			t.Fatal("no forest")
		}

		// A second TrainMatrix on the same metrics accumulates.
		if _, err := trainRows(Config{Seed: 10, NTrees: 12, Workers: workers, Metrics: met}, x, y); err != nil {
			t.Fatal(err)
		}
		if got := met.Trains.Load(); got != 2 {
			t.Errorf("workers=%d: trains_total after second TrainMatrix = %d, want 2", workers, got)
		}
	}
}

// TestTrainMetricsPreservesDeterminism pins that instrumentation cannot
// perturb training: the forest must stay bit-identical with and without
// metrics, at any worker count.
func TestTrainMetricsPreservesDeterminism(t *testing.T) {
	x, y := grid2d(6, func(a, b float64) float64 { return a * b })
	plain, err := trainRows(Config{Seed: 11, NTrees: 10, Workers: 1}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := trainRows(Config{Seed: 11, NTrees: 10, Workers: 4, Metrics: NewMetrics(obs.NewRegistry())}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{2.5, 3.5}
	if a, b := plain.Predict(probe), inst.Predict(probe); a != b {
		t.Errorf("instrumented forest predicts %v, plain %v", b, a)
	}
}
