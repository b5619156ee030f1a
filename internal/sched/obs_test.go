package sched

import (
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/obs"
)

func TestPlanWaveObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	alloc := cluster.TopologySingleRack() // one rack: everything after the first request stalls

	wave, rest := planWaveObs(alloc, reqs(4, 4, 4), met)
	if len(wave) != 1 || len(rest) != 2 {
		t.Fatalf("wave/rest = %d/%d, want 1/2", len(wave), len(rest))
	}
	if got := met.Waves.Load(); got != 1 {
		t.Errorf("waves_total = %d, want 1", got)
	}
	if got := met.Stalls.Load(); got != 2 {
		t.Errorf("stalls_total = %d, want 2 (the layer-conflict deferrals)", got)
	}
	ws := met.WaveSize.Snapshot()
	if ws.Count != 1 || ws.Sum != 1 {
		t.Errorf("wave_size snapshot = %+v, want one observation of 1", ws)
	}
}

func TestPlanAllObsCountsEveryWave(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	alloc := cluster.TopologySingleRack()

	waves, err := PlanAllObs(alloc, reqs(4, 4, 4), met)
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Waves.Load(); got != uint64(len(waves)) {
		t.Errorf("waves_total = %d, want %d", got, len(waves))
	}
	var placed uint64
	for _, w := range waves {
		placed += uint64(len(w))
	}
	if got := met.WaveSize.Snapshot(); got.Sum != float64(placed) {
		t.Errorf("wave_size sum = %v, want %d placements", got.Sum, placed)
	}
}

// TestPlanWaveObsNilMetrics pins that the nil-metrics path is identical
// to the plain planner.
func TestPlanWaveObsNilMetrics(t *testing.T) {
	alloc := cluster.TopologyMaxParallel()
	w1, r1 := PlanWave(alloc, reqs(4, 4))
	w2, r2 := planWaveObs(alloc, reqs(4, 4), nil)
	if len(w1) != len(w2) || len(r1) != len(r2) {
		t.Errorf("nil-metrics plan differs: %d/%d vs %d/%d", len(w1), len(r1), len(w2), len(r2))
	}
}
