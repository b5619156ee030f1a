package acclaim_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/experiments"
	"acclaim/internal/fact"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/hunold"
	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
	"acclaim/internal/traces"
)

// The benchmark lab uses the tiny grid so `go test -bench=.` stays
// tractable; cmd/experiments -space sim regenerates the figures at the
// paper-scale grid.
var (
	labOnce sync.Once
	lab     *experiments.Lab
	labErr  error
)

func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		lab, labErr = experiments.NewLab(experiments.TinySpace(), 77)
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return lab
}

// BenchmarkFig03 regenerates Figure 3: Hunold vs FACT data efficiency.
// The reported metrics are the average slowdowns at 40% training data.
func BenchmarkFig03(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig3(l, []float64{0.1, 0.4})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Hunold, "hunold-slowdown")
	b.ReportMetric(last.FACT, "fact-slowdown")
}

// BenchmarkFig04 regenerates Figure 4: the non-P2 message-size share.
func BenchmarkFig04(b *testing.B) {
	var agg float64
	for i := 0; i < b.N; i++ {
		_, agg = experiments.Fig4(42)
	}
	b.ReportMetric(agg*100, "nonP2-%")
}

// BenchmarkFig05 regenerates Figure 5: FACT on P2 vs non-P2 test sets.
func BenchmarkFig05(b *testing.B) {
	l := benchLab(b)
	var series []experiments.Fig5Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig5(l, []float64{0.6})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		switch s.TestSet {
		case "All P2":
			b.ReportMetric(s.Curve[len(s.Curve)-1].Slowdown, "p2-slowdown")
		case "Non-P2 Message Size":
			b.ReportMetric(s.Curve[len(s.Curve)-1].Slowdown, "nonP2msg-slowdown")
		}
	}
}

// BenchmarkFig06 regenerates Figure 6: test-set vs training collection
// time under FACT, reporting the mean ratio.
func BenchmarkFig06(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig6(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ratio float64
	for _, r := range rows {
		ratio += r.Ratio
	}
	b.ReportMetric(ratio/float64(len(rows)), "test/train-ratio")
}

// BenchmarkFig07 regenerates Figure 7: the variance/slowdown co-trend.
func BenchmarkFig07(b *testing.B) {
	l := benchLab(b)
	var pts []experiments.Fig7Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig7(l, coll.Bcast)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Slowdown, "final-slowdown")
	b.ReportMetric(last.Variance, "final-variance")
}

// BenchmarkFig09 regenerates the Section V rule-file generation.
func BenchmarkFig09(b *testing.B) {
	l := benchLab(b)
	rulesTotal := 0
	for i := 0; i < b.N; i++ {
		file, err := experiments.Fig9(l)
		if err != nil {
			b.Fatal(err)
		}
		rulesTotal = 0
		for _, t := range file.Tables {
			rulesTotal += t.NumRules()
		}
	}
	b.ReportMetric(float64(rulesTotal), "rules")
}

// BenchmarkFig10 regenerates Figure 10: ACCLAiM vs FACT point-selection
// time-to-convergence.
func BenchmarkFig10(b *testing.B) {
	l := benchLab(b)
	var cum float64
	for i := 0; i < b.N; i++ {
		var err error
		_, cum, err = experiments.Fig10(l, 0.6)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !math.IsNaN(cum) {
		b.ReportMetric(cum, "fact/acclaim-time")
	}
}

// BenchmarkFig11 regenerates Figure 11: P2/non-P2 training splits.
func BenchmarkFig11(b *testing.B) {
	l := benchLab(b)
	var series []experiments.Fig11Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig11(l, []float64{0.6})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.NonP2Every == 5 {
			b.ReportMetric(s.NonP2Curve[len(s.NonP2Curve)-1].Slowdown, "80-20-nonP2-slowdown")
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: variance vs slowdown
// convergence.
func BenchmarkFig12(b *testing.B) {
	l := benchLab(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		var err error
		_, ratio, err = experiments.Fig12(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !math.IsNaN(ratio) {
		b.ReportMetric(ratio, "slowdownconv/varconv-time")
	}
}

// BenchmarkFig13 regenerates Figure 13: parallel collection speedups.
func BenchmarkFig13(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig13Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig13(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	byTopo := map[string]float64{}
	count := map[string]float64{}
	for _, r := range rows {
		byTopo[r.Topology] += r.Speedup
		count[r.Topology]++
	}
	b.ReportMetric(byTopo["Single Rack"]/count["Single Rack"], "single-rack-speedup")
	b.ReportMetric(byTopo["Max Parallel"]/count["Max Parallel"], "max-parallel-speedup")
}

// BenchmarkFig14 regenerates Figure 14 at a reduced production scale
// (32 nodes; the paper's 128-node run is cmd/experiments -nodes 128).
func BenchmarkFig14(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		var err error
		_, _, total, _, err = experiments.Fig14(32, 4, 99)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(total/1e6, "machine-s") // tuning plus the job cell
}

// BenchmarkFig15 regenerates Figure 15's break-even table.
func BenchmarkFig15(b *testing.B) {
	var rows []experiments.Fig15Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig15(5*60e6, nil) // 5 minutes of training
	}
	for _, r := range rows {
		if r.AppSpeedup == 1.01 {
			b.ReportMetric(r.MinRuntimeHours, "Rmin(1.01)-hours")
		}
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out. ---

func ablationBackend(b *testing.B) (*experiments.Lab, autotune.WaveBackend) {
	l := benchLab(b)
	return l, l.Backend()
}

// BenchmarkAblationSelection compares the three training-point
// selection strategies (jackknife / surrogate / random) by the machine
// time each needs to reach the 1.03 criterion on bcast.
func BenchmarkAblationSelection(b *testing.B) {
	l, backend := ablationBackend(b)
	eval := l.EvalFor(coll.Bcast, l.Space.Points())
	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	conv := func(curve []autotune.CurvePoint) float64 {
		t := experiments.ConvergenceTime(curve)
		if math.IsNaN(t) {
			return curve[len(curve)-1].CollectionTime * 2 // penalty: never converged
		}
		return t
	}
	for i := 0; i < b.N; i++ {
		// Jackknife (ACCLAiM).
		at := core.New(core.Config{Space: l.Space, Forest: core.Production(l.Space, 9).Forest, Seed: 9,
			Epsilon: 1e-12, MaxIterations: 70}, backend)
		ares, err := at.Tune(coll.Bcast)
		if err != nil {
			b.Fatal(err)
		}
		aCurve, err := at.LearningCurve(ares, fracs, eval)
		if err != nil {
			b.Fatal(err)
		}
		// Surrogate (FACT).
		ft := fact.New(fact.Config{Space: l.Space, Forest: core.Production(l.Space, 9).Forest, Seed: 9,
			MaxPoints: 70, Criterion: 1.0, CheckEvery: 50}, backend)
		fres, err := ft.Tune(coll.Bcast)
		if err != nil {
			b.Fatal(err)
		}
		fCurve, err := ft.LearningCurve(fres, fracs, eval)
		if err != nil {
			b.Fatal(err)
		}
		// Random (Hunold).
		ht := hunold.New(hunold.Config{Space: l.Space, Forest: core.Production(l.Space, 9).Forest, Seed: 9}, backend)
		hCurve, err := ht.LearningCurve(coll.Bcast, fracs, func(s autotune.Selector) (float64, error) { return eval(s) })
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(conv(aCurve)/1e3, "jackknife-ms")
		b.ReportMetric(conv(fCurve)/1e3, "surrogate-ms")
		b.ReportMetric(conv(hCurve)/1e3, "random-ms")
	}
}

// BenchmarkAblationNonP2 sweeps the non-P2 mixing ratio.
func BenchmarkAblationNonP2(b *testing.B) {
	l, backend := ablationBackend(b)
	for i := 0; i < b.N; i++ {
		for _, every := range []int{-1, 2, 5} {
			tuner := core.New(core.Config{Space: l.Space, Forest: core.Production(l.Space, 4).Forest, Seed: 4,
				NonP2Every: every}, backend)
			res, err := tuner.Tune(coll.Bcast)
			if err != nil {
				b.Fatal(err)
			}
			sd, err := autotune.EvalSlowdown(l.DS, coll.Bcast, l.NonP2Msgs, res)
			if err != nil {
				b.Fatal(err)
			}
			switch every {
			case -1:
				b.ReportMetric(sd, "allP2-nonP2sd")
			case 2:
				b.ReportMetric(sd, "50-50-nonP2sd")
			case 5:
				b.ReportMetric(sd, "80-20-nonP2sd")
			}
		}
	}
}

// BenchmarkAblationConvergence sweeps the stall-detector window and
// threshold, reporting samples-at-convergence and final quality.
func BenchmarkAblationConvergence(b *testing.B) {
	l, backend := ablationBackend(b)
	for i := 0; i < b.N; i++ {
		for _, cfg := range []struct {
			name    string
			window  int
			epsilon float64
		}{{"loose", 3, 0.10}, {"default", 5, 0.05}, {"strict", 7, 0.02}} {
			tuner := core.New(core.Config{Space: l.Space, Forest: core.Production(l.Space, 6).Forest, Seed: 6,
				Window: cfg.window, Epsilon: cfg.epsilon}, backend)
			res, err := tuner.Tune(coll.Reduce)
			if err != nil {
				b.Fatal(err)
			}
			sd, err := autotune.EvalSlowdown(l.DS, coll.Reduce, l.Space.Points(), res)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Order)), cfg.name+"-samples")
			b.ReportMetric(sd, cfg.name+"-slowdown")
		}
	}
}

// BenchmarkAblationScheduler compares greedy topology-aware waves
// against sequential collection on the max-parallel topology.
func BenchmarkAblationScheduler(b *testing.B) {
	alloc := cluster.TopologyMaxParallel()
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc,
		benchmark.Config{Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	var specs []benchmark.Spec
	for _, n := range []int{8, 8, 4, 4, 2, 2, 16, 8} {
		specs = append(specs, benchmark.Spec{Coll: coll.Bcast, Alg: "binomial",
			Point: featspace.Point{Nodes: n, PPN: 2, MsgBytes: 32768}})
	}
	for i := 0; i < b.N; i++ {
		_, seq, err := runner.RunSequential(specs)
		if err != nil {
			b.Fatal(err)
		}
		_, par, _, err := runner.RunParallel(specs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(seq/par, "greedy-speedup")
	}
}

// BenchmarkAblationForest sweeps the forest size against final model
// quality on a fully collected training set.
func BenchmarkAblationForest(b *testing.B) {
	l := benchLab(b)
	ts := autotune.NewTrainingSet(coll.Bcast)
	for _, c := range autotune.Candidates(coll.Bcast, l.Space, 64) {
		mean, ok := l.DS.TimeOf(coll.Bcast, c.Alg, c.Point)
		if !ok {
			b.Fatal("missing entry")
		}
		ts.Add(c, mean, mean)
	}
	for i := 0; i < b.N; i++ {
		for _, trees := range []int{10, 30, 90} {
			m, err := autotune.TrainModel(forest.Config{NTrees: trees, Seed: 3}, ts)
			if err != nil {
				b.Fatal(err)
			}
			sd, err := autotune.EvalSlowdown(l.DS, coll.Bcast, l.Space.Points(), m)
			if err != nil {
				b.Fatal(err)
			}
			switch trees {
			case 10:
				b.ReportMetric(sd, "10-trees-slowdown")
			case 30:
				b.ReportMetric(sd, "30-trees-slowdown")
			case 90:
				b.ReportMetric(sd, "90-trees-slowdown")
			}
		}
	}
}

// --- Micro-benchmarks of the substrates themselves. ---

// BenchmarkSimBcast measures simulator throughput for a 128-rank
// binomial broadcast.
func BenchmarkSimBcast(b *testing.B) {
	mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 32)
	model, err := netmodel.New(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.Exec(model, coll.Bcast, "binomial", 65536, coll.Options{Op: simmpi.OpSum}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRingAllgather measures the heaviest algorithm: a 128-rank
// ring allgather (n^2 messages).
func BenchmarkSimRingAllgather(b *testing.B) {
	mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 32)
	model, err := netmodel.New(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coll.Exec(model, coll.Allgather, "ring", 4096, coll.Options{Op: simmpi.OpSum}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrain measures random-forest training on a
// typical-size active-learning training set.
func BenchmarkForestTrain(b *testing.B) {
	l := benchLab(b)
	ts := autotune.NewTrainingSet(coll.Bcast)
	for _, c := range autotune.Candidates(coll.Bcast, l.Space, 64) {
		mean, _ := l.DS.TimeOf(coll.Bcast, c.Alg, c.Point)
		ts.Add(c, mean, mean)
	}
	var x featspace.Matrix
	y := ts.FillMatrix(&x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.TrainMatrix(forest.Config{NTrees: 30, Seed: 3}, &x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJackknifeSweepBatch measures the per-iteration variance
// sweep over a full candidate pool: one VarianceBatchInto call on a
// reused arena, as the tuners make it every round.
func BenchmarkJackknifeSweepBatch(b *testing.B) {
	l := benchLab(b)
	ts := autotune.NewTrainingSet(coll.Bcast)
	cands := autotune.Candidates(coll.Bcast, l.Space, 64)
	for _, c := range cands {
		mean, _ := l.DS.TimeOf(coll.Bcast, c.Alg, c.Point)
		ts.Add(c, mean, mean)
	}
	m, err := autotune.TrainModel(forest.Config{NTrees: 30, Seed: 3}, ts)
	if err != nil {
		b.Fatal(err)
	}
	var a autotune.Arena
	m.VarianceBatchInto(&a, cands) // size the arena's buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, v := range m.VarianceBatchInto(&a, cands) {
			sum += v
		}
		_ = sum
	}
}

// BenchmarkSelectBatch measures the batched rule-extraction sweep: one
// SelectBatch over the full grid vs per-point Select calls.
func BenchmarkSelectBatch(b *testing.B) {
	l := benchLab(b)
	ts := autotune.NewTrainingSet(coll.Bcast)
	for _, c := range autotune.Candidates(coll.Bcast, l.Space, 64) {
		mean, _ := l.DS.TimeOf(coll.Bcast, c.Alg, c.Point)
		ts.Add(c, mean, mean)
	}
	m, err := autotune.TrainModel(forest.Config{NTrees: 30, Seed: 3}, ts)
	if err != nil {
		b.Fatal(err)
	}
	pts := l.Space.Points()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SelectBatch(pts)
	}
}

// BenchmarkTraceSynthesis measures application trace generation.
func BenchmarkTraceSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := traces.Synthesize("LAMMPS", 64, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// newSeededRand is a tiny helper shared by the root tests.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
