package experiments

import (
	"math"
	"strings"
	"testing"

	"acclaim/internal/autotune"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/featspace"
	"acclaim/internal/stats"
)

// tinyLab is shared across tests in this package; collection is fast on
// the tiny grid.
var tinyLabCache *Lab

func tinyLab(t testing.TB) *Lab {
	t.Helper()
	if tinyLabCache != nil {
		return tinyLabCache
	}
	l, err := NewLab(TinySpace(), 77)
	if err != nil {
		t.Fatal(err)
	}
	tinyLabCache = l
	return l
}

func TestNewLabCollectsEverything(t *testing.T) {
	l := tinyLab(t)
	// Grid + two non-P2 test sets, for all four collectives.
	if l.DS.Len() == 0 {
		t.Fatal("empty dataset")
	}
	for _, p := range l.NonP2Nodes {
		if _, _, ok := l.DS.Best(coll.Bcast, p); !ok {
			t.Fatalf("non-P2 nodes point %v missing from dataset", p)
		}
	}
	for _, p := range l.NonP2Msgs {
		if _, _, ok := l.DS.Best(coll.Bcast, p); !ok {
			t.Fatalf("non-P2 msg point %v missing from dataset", p)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	l := tinyLab(t)
	rows, err := Fig3(l, []float64{0.1, 0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Hunold < 1 || r.FACT < 1 {
			t.Errorf("slowdowns below 1: %+v", r)
		}
	}
	// With most of the pool, both reach low slowdown; FACT should not be
	// dramatically worse than Hunold anywhere.
	last := rows[len(rows)-1]
	if last.FACT > 1.2 || last.Hunold > 1.2 {
		t.Errorf("high-data slowdowns too large: %+v", last)
	}
	if out := ReportFig3(rows); !strings.Contains(out, "Figure 3") {
		t.Error("report missing header")
	}
}

func TestFig4Shape(t *testing.T) {
	rows, agg := Fig4(42)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if agg < 0.10 || agg > 0.25 {
		t.Errorf("aggregate = %v, want ~0.157", agg)
	}
	if out := ReportFig4(rows, agg); !strings.Contains(out, "unavailable") {
		t.Error("report missing the ParaDis gap")
	}
}

func TestFig5Shape(t *testing.T) {
	l := tinyLab(t)
	series, err := Fig5(l, []float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	byName := map[string][]float64{}
	for _, s := range series {
		for _, p := range s.Curve {
			byName[s.TestSet] = append(byName[s.TestSet], p.Slowdown)
		}
	}
	// The Section III-B failure: with plentiful data, the P2-trained
	// model must do worse on non-P2 message sizes than on P2 points.
	p2 := byName["All P2"]
	np := byName["Non-P2 Message Size"]
	if np[len(np)-1] <= p2[len(p2)-1] {
		t.Errorf("non-P2 msg slowdown %v not above P2 %v", np[len(np)-1], p2[len(p2)-1])
	}
	_ = ReportFig5(series)
}

func TestFig6Shape(t *testing.T) {
	l := tinyLab(t)
	rows, err := Fig6(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TestTime <= 0 {
			t.Errorf("%v: no test time", r.Coll)
		}
		if r.TrainTime <= 0 {
			t.Errorf("%v: no training time", r.Coll)
		}
	}
	_ = ReportFig6(rows)
}

func TestFig7Shape(t *testing.T) {
	l := tinyLab(t)
	pts, err := Fig7(l, coll.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("trace too short: %d", len(pts))
	}
	// Variance rises while active learning uncovers structure, then
	// settles: the run must end below its variance peak, and the model
	// quality at the end must be at least as good as at the peak —
	// variance and slowdown co-trend (the Figure 7 claim).
	last := pts[len(pts)-1]
	peakVar, sdAtPeak := 0.0, 0.0
	for _, p := range pts {
		if p.Variance > peakVar {
			peakVar, sdAtPeak = p.Variance, p.Slowdown
		}
	}
	if last.Variance >= peakVar {
		t.Errorf("run ended at the variance peak: %v >= %v", last.Variance, peakVar)
	}
	if last.Slowdown > sdAtPeak+0.05 {
		t.Errorf("slowdown at convergence (%v) worse than at the variance peak (%v)", last.Slowdown, sdAtPeak)
	}
	_ = ReportFig7(pts)
}

func TestFig9RulesFile(t *testing.T) {
	l := tinyLab(t)
	f, err := Fig9(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Tables) != 4 {
		t.Errorf("tables = %d", len(f.Tables))
	}
}

func TestFig10Shape(t *testing.T) {
	l := tinyLab(t)
	rows, cum, err := Fig10(l, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	converged := 0
	for _, r := range rows {
		if !math.IsNaN(r.ACCLAiMConv) {
			converged++
		}
	}
	if converged == 0 {
		t.Error("ACCLAiM converged for no collective")
	}
	_ = ReportFig10(rows, cum)
}

func TestFig11Structure(t *testing.T) {
	l := tinyLab(t)
	series, err := Fig11(l, []float64{0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.P2Curve) != 2 || len(s.NonP2Curve) != 2 {
			t.Fatalf("%s: curve lengths %d/%d", s.Split, len(s.P2Curve), len(s.NonP2Curve))
		}
		for i := range s.P2Curve {
			if s.P2Curve[i].Slowdown < 1 || s.NonP2Curve[i].Slowdown < 1 {
				t.Errorf("%s: slowdown below 1", s.Split)
			}
		}
	}
	_ = ReportFig11(series)
	// The Goldilocks shape itself (80-20 fixing non-P2 without hurting
	// P2) needs the full-scale grid's crossover density; it is asserted
	// against the SimSpace run in EXPERIMENTS.md and exercised by
	// BenchmarkFig11. Here we verify the underlying mechanism: a model
	// given non-P2 training coverage must fix the non-P2 test set.
	sdP2Only, sdWithNP := fig11Mechanism(t, l)
	if sdWithNP >= sdP2Only {
		t.Errorf("non-P2 coverage did not improve non-P2 slowdown: %v vs %v", sdWithNP, sdP2Only)
	}
}

// fig11Mechanism trains unified bcast models with and without full
// non-P2 message coverage and returns their non-P2 test slowdowns.
func fig11Mechanism(t *testing.T, l *Lab) (p2Only, withNonP2 float64) {
	t.Helper()
	train := func(pts []featspace.Point) float64 {
		ts := autotune.NewTrainingSet(coll.Bcast)
		for _, p := range pts {
			for ai, a := range coll.AlgorithmNames(coll.Bcast) {
				mean, ok := l.DS.TimeOf(coll.Bcast, a, p)
				if !ok {
					t.Fatalf("missing %v at %v", a, p)
				}
				ts.Add(autotune.Candidate{Point: p, Alg: a, AlgIdx: ai}, mean, mean)
			}
		}
		m, err := autotune.TrainModel(core.Production(l.Space, l.Seed).Forest, ts)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := autotune.EvalSlowdown(l.DS, coll.Bcast, l.NonP2Msgs, m)
		if err != nil {
			t.Fatal(err)
		}
		return sd
	}
	p2Only = train(l.Space.Points())
	withNonP2 = train(append(append([]featspace.Point{}, l.Space.Points()...), l.NonP2Msgs...))
	return p2Only, withNonP2
}

func TestFig12Shape(t *testing.T) {
	l := tinyLab(t)
	rows, ratio, err := Fig12(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.VarConvTime) {
			t.Errorf("%v: variance criterion never fired", r.Coll)
			continue
		}
		// The model at variance convergence must be usable (the paper
		// accepts up to ~1.04).
		if r.SlowdownAtVarConv > 1.25 {
			t.Errorf("%v: slowdown at variance convergence = %v", r.Coll, r.SlowdownAtVarConv)
		}
	}
	_ = ReportFig12(rows, ratio)
}

func TestFig13Shape(t *testing.T) {
	l := tinyLab(t)
	rows, err := Fig13(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 4 collectives x 4 topologies", len(rows))
	}
	speedups := map[string]float64{}
	for _, r := range rows {
		if r.Speedup < 0.99 {
			t.Errorf("%v/%s speedup %v < 1", r.Coll, r.Topology, r.Speedup)
		}
		speedups[r.Topology] += r.Speedup
	}
	// More parallel topologies must help at least as much as the single
	// rack on aggregate.
	if speedups["Max Parallel"] <= speedups["Single Rack"] {
		t.Errorf("max parallel (%v) not faster than single rack (%v)",
			speedups["Max Parallel"], speedups["Single Rack"])
	}
	_ = ReportFig13(rows)
}

func TestFig14Small(t *testing.T) {
	// A scaled-down production run: 16 nodes, 2 ppn.
	rows, cell, total, speedup, err := Fig14(16, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if total <= 0 {
		t.Error("no training time")
	}
	var tuning float64
	for _, r := range rows {
		if r.Samples == 0 || r.TrainTime <= 0 {
			t.Errorf("bad row %+v", r)
		}
		tuning += r.TrainTime
	}
	// The job cell is charged, and the total is the rows' tuning time
	// plus the cell, bit for bit.
	if cell <= 0 {
		t.Errorf("job cell machine time = %v, want > 0", cell)
	}
	if math.Float64bits(total) != math.Float64bits(tuning+cell) {
		t.Errorf("total = %v, want tuning %v + cell %v = %v", total, tuning, cell, tuning+cell)
	}
	if math.IsInf(speedup, 0) || math.IsNaN(speedup) || speedup <= 0 {
		t.Errorf("measured speedup = %v, want finite and > 0", speedup)
	}
	_ = ReportFig14(rows, cell, total, speedup)
}

func TestFig15Math(t *testing.T) {
	rows := Fig15(3.6e9, nil) // one hour of training
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// 1.01 speedup: Rmin = T*1.01/0.01 = 101 hours for T = 1h.
	for _, r := range rows {
		if r.AppSpeedup == 1.01 {
			if math.Abs(r.MinRuntimeHours-101) > 0.5 {
				t.Errorf("Rmin(1.01) = %v, want ~101", r.MinRuntimeHours)
			}
		}
	}
	// Higher speedups need shorter runtimes.
	for i := 1; i < len(rows); i++ {
		if rows[i].MinRuntimeHours >= rows[i-1].MinRuntimeHours {
			t.Error("Rmin not decreasing in speedup")
		}
	}
	_ = ReportFig15(rows, 3.6e9)
}

// TestFig15Never: a measured speedup that is not above 1 never pays
// the training back, and the table says so instead of printing +Inf.
func TestFig15Never(t *testing.T) {
	for _, s := range []float64{1, 0.97} {
		rows := Fig15(3.6e9, []float64{s})
		if len(rows) != 1 || !math.IsInf(rows[0].MinRuntimeHours, 1) {
			t.Fatalf("Fig15(1h, %v) = %+v, want one row at +Inf", s, rows)
		}
		rows[0].Measured = true
		out := ReportFig15(rows, 3.6e9)
		if !strings.Contains(out, "never") || strings.Contains(out, "Inf") || !strings.Contains(out, "measured") {
			t.Errorf("ReportFig15 at speedup %v:\n%s\nwant a measured row reading \"never\"", s, out)
		}
	}
}

func TestConvergenceTimeHelper(t *testing.T) {
	cp := ConvergenceTime([]autotune.CurvePoint{
		{CollectionTime: 10, Slowdown: 1.5},
		{CollectionTime: 20, Slowdown: stats.ConvergenceCriterion},
		{CollectionTime: 30, Slowdown: 1.01},
	})
	if cp != 20 {
		t.Errorf("ConvergenceTime = %v, want 20", cp)
	}
	if !math.IsNaN(ConvergenceTime(nil)) {
		t.Error("empty curve should give NaN")
	}
}
