package forest

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"acclaim/internal/stats"
)

// testingBenchTime times one call of fn in seconds.
func testingBenchTime(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// benchData builds the acceptance-criteria workload: 2000 samples,
// 4 features, a noisy nonlinear target.
func benchData(n int) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(99))
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 16, rng.Float64() * 8, rng.Float64() * 20, rng.Float64()}
		y[i] = math.Log1p(x[i][0]*x[i][2]) + math.Sin(x[i][1]) + rng.NormFloat64()*0.05
	}
	return x, y
}

func benchTrain(b *testing.B, workers int) {
	x, y := benchData(2000)
	m := rowsMatrix(x)
	cfg := Config{NTrees: 100, Seed: 7, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainMatrix(cfg, m, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSerial is the baseline: 100 trees, 2k samples, one
// worker, on the default (compiled histogram) training path.
func BenchmarkTrainSerial(b *testing.B) { benchTrain(b, 1) }

// BenchmarkTrainParallel is the same workload on the full worker pool —
// the acceptance criterion is >= 2x over BenchmarkTrainSerial at 8
// cores.
func BenchmarkTrainParallel(b *testing.B) { benchTrain(b, 0) }

// BenchmarkTrainParallelSpeedup trains serial and parallel back to
// back and reports the observed pool speedup as a metric, so the ratio
// itself lands in benchmark output (machine-independent, unlike
// ns/op). Not CI-gated: on 2-core shared runners the honest ratio is
// ~1x.
func BenchmarkTrainParallelSpeedup(b *testing.B) {
	x, y := benchData(2000)
	m := rowsMatrix(x)
	serial := Config{NTrees: 100, Seed: 7, Workers: 1}
	parallel := Config{NTrees: 100, Seed: 7, Workers: 0}
	var speedup float64
	for i := 0; i < b.N; i++ {
		ts := testingBenchTime(func() {
			if _, err := TrainMatrix(serial, m, y); err != nil {
				b.Fatal(err)
			}
		})
		tp := testingBenchTime(func() {
			if _, err := TrainMatrix(parallel, m, y); err != nil {
				b.Fatal(err)
			}
		})
		speedup = ts / tp
	}
	b.ReportMetric(speedup, "parallel_speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
}

// BenchmarkTrainReference is the pre-histogram reference builder on
// the serial workload — the denominator-free half of the training
// speedup pair, kept so ns/op for both paths lands in the snapshot.
func BenchmarkTrainReference(b *testing.B) {
	x, y := benchData(2000)
	cfg := Config{NTrees: 100, Seed: 7, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainReference(cfg, x, y)
	}
}

// BenchmarkTrainCompiled is the compiled histogram trainer on the same
// serial workload. Its allocation count is a deterministic property of
// the arena/scratch discipline, so the baseline entry gates it.
func BenchmarkTrainCompiled(b *testing.B) {
	x, y := benchData(2000)
	m := rowsMatrix(x)
	cfg := Config{NTrees: 100, Seed: 7, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainMatrix(cfg, m, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSpeedup times the reference builder against the
// compiled histogram trainer on identical inputs (both serial, so the
// ratio measures the representation, not the pool) and reports it as
// the train_speedup metric; CI gates it with
// `benchguard -floor train_speedup=2.5`.
func BenchmarkTrainSpeedup(b *testing.B) {
	x, y := benchData(2000)
	m := rowsMatrix(x)
	cfg := Config{NTrees: 100, Seed: 7, Workers: 1}
	var speedup float64
	for i := 0; i < b.N; i++ {
		tRef := testingBenchTime(func() {
			for r := 0; r < 2; r++ {
				trainReference(cfg, x, y)
			}
		})
		tCompiled := testingBenchTime(func() {
			for r := 0; r < 2; r++ {
				if _, err := TrainMatrix(cfg, m, y); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup = tRef / tCompiled
	}
	b.ReportMetric(speedup, "train_speedup")
}

// BenchmarkTrainSplitScan is the steady-state training hot path in
// isolation: per-feature order building, the split scans of a root
// node, and one stable partition, on a warm trainer. Its baseline pins
// allocs/op at 0 — the hard benchguard gate behind the
// //acclaim:zeroalloc annotations in trainer.go.
func BenchmarkTrainSplitScan(b *testing.B) {
	x, y := benchData(2000)
	cfg := Config{NTrees: 1, Seed: 7, Workers: 1}.withDefaults(len(x[0]))
	bs := newBinset(len(x), len(x[0]), rowsMatrix(x).Col)
	tr := &trainer{bs: bs, y: y, cfg: cfg}
	boot := make([]int, len(x))
	for i := range boot {
		boot[i] = i
	}
	tr.fitTree(7, boot) // warm every scratch buffer
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.buildOrders()
		feat, th, cut, ok := 0, 0.0, int32(0), false
		for f := 0; f < tr.bs.nf; f++ {
			if _, t2, c, o := tr.scanFeature(f, 0, tr.nb, 1e18); o {
				feat, th, cut, ok = f, t2, c, o
			}
		}
		if ok {
			tr.stablePartition(tr.idx, feat, cut)
			sink += th
		}
	}
	_ = sink
}

// kernelBench builds the paper-scale scoring workload of the ISSUE 5
// acceptance criteria: a 30-tree forest (default depth 14) over the
// 7-dim featspace-shaped encoding, 2048 flat queries, serial workers
// (the zero-alloc path; parallel fan-out is covered by correctness
// tests).
func kernelBench(b *testing.B) (*Forest, *Kernel, [][]float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	row := func() []float64 {
		return []float64{
			rng.Float64() * 64, rng.Float64() * 32, rng.Float64() * 20,
			rng.Float64() * 11, rng.Float64(), rng.Float64(), float64(rng.Intn(4)),
		}
	}
	x := make([][]float64, 2000)
	y := make([]float64, 2000)
	for i := range x {
		x[i] = row()
		y[i] = math.Log1p(x[i][0]*x[i][2]) + math.Sin(x[i][3]) + x[i][6] + rng.NormFloat64()*0.05
	}
	f, err := trainRows(Config{NTrees: 30, Seed: 7, Workers: 1}, x, y)
	if err != nil {
		b.Fatal(err)
	}
	const nq = 2048
	qs := make([][]float64, nq)
	flat := make([]float64, 0, nq*7)
	for i := range qs {
		qs[i] = row()
		flat = append(flat, qs[i]...)
	}
	return f, f.Compile(), qs, flat
}

// BenchmarkKernelScoreFlat is the fused compiled sweep (mean +
// jackknife variance in one pass). Steady state is zero-alloc — the
// baseline pins allocs/op at 0 as a hard benchguard gate.
func BenchmarkKernelScoreFlat(b *testing.B) {
	_, k, _, flat := kernelBench(b)
	mean := make([]float64, len(flat)/7)
	vari := make([]float64, len(flat)/7)
	runtime.GC()                  // quiesce training garbage so no cycle empties the pool mid-run
	k.ScoreFlat(flat, mean, vari) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScoreFlat(flat, mean, vari)
	}
}

// BenchmarkKernelPredictFlat is the compiled mean-prediction sweep,
// also gated at 0 allocs/op.
func BenchmarkKernelPredictFlat(b *testing.B) {
	_, k, _, flat := kernelBench(b)
	out := make([]float64, len(flat)/7)
	runtime.GC()             // quiesce training garbage so no cycle empties the pool mid-run
	k.PredictFlat(flat, out) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PredictFlat(flat, out)
	}
}

// BenchmarkKernelSpeedup times the per-row reference jackknife loop
// (one pointer walk per row and tree into a reused buffer) against the
// fused kernel sweep on identical inputs (both serial, so the ratio
// measures the representation, not the pool) and reports the ratio as
// the kernel_speedup metric; CI gates it with
// `benchguard -floor kernel_speedup=3`.
func BenchmarkKernelSpeedup(b *testing.B) {
	f, k, qs, flat := kernelBench(b)
	vari := make([]float64, len(qs))
	preds := make([]float64, f.NumTrees())
	k.ScoreFlat(flat, nil, vari) // warm the scratch pool
	var speedup float64
	for i := 0; i < b.N; i++ {
		tRef := testingBenchTime(func() {
			for r := 0; r < 8; r++ {
				for _, q := range qs {
					f.treePredictInto(q, preds)
					_ = stats.JackknifeVariance(preds)
				}
			}
		})
		tKern := testingBenchTime(func() {
			for r := 0; r < 8; r++ {
				k.ScoreFlat(flat, nil, vari)
			}
		})
		speedup = tRef / tKern
	}
	b.ReportMetric(speedup, "kernel_speedup")
}
