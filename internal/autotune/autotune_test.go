package autotune

import (
	"math"
	"testing"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/netmodel"
)

func tinySpace() featspace.Space {
	return featspace.Space{Nodes: []int{2, 4}, PPNs: []int{1, 2}, Msgs: []int{8, 256, 8192}}
}

func liveBackend(t testing.TB) LiveBackend {
	t.Helper()
	r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(),
		cluster.TopologyTwoPairs(), benchmark.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return LiveBackend{Runner: r}
}

func tinyDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	b := liveBackend(t)
	d, err := dataset.Collect(b.Runner, tinySpace().Points(), dataset.CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCandidates(t *testing.T) {
	cs := Candidates(coll.Bcast, tinySpace(), 64)
	want := tinySpace().Size() * coll.NumAlgorithms(coll.Bcast)
	if len(cs) != want {
		t.Fatalf("candidates = %d, want %d", len(cs), want)
	}
	// maxNodes filters.
	cs2 := Candidates(coll.Bcast, tinySpace(), 2)
	if len(cs2) != want/2 {
		t.Errorf("filtered candidates = %d, want %d", len(cs2), want/2)
	}
	// AlgIdx matches registry order.
	for _, c := range cs {
		idx, ok := coll.AlgIndex(coll.Bcast, c.Alg)
		if !ok || idx != c.AlgIdx {
			t.Fatalf("bad AlgIdx for %v", c)
		}
	}
}

func TestLiveBackendMeasure(t *testing.T) {
	b := liveBackend(t)
	m, err := b.Measure(benchmark.Spec{Coll: coll.Bcast, Alg: "binomial",
		Point: featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanTime <= 0 {
		t.Error("non-positive measurement")
	}
	if b.MaxNodes() != 64 {
		t.Errorf("MaxNodes = %d", b.MaxNodes())
	}
	ms, wall, err := b.MeasureWave([]benchmark.Spec{
		{Coll: coll.Bcast, Alg: "binomial", Point: featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 64}},
		{Coll: coll.Bcast, Alg: "binomial", Point: featspace.Point{Nodes: 4, PPN: 1, MsgBytes: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || wall <= 0 {
		t.Errorf("wave: %d measurements, wall=%v", len(ms), wall)
	}
}

func TestTrainingSetMatrix(t *testing.T) {
	ts := NewTrainingSet(coll.Bcast)
	c := Candidate{Point: featspace.Point{Nodes: 4, PPN: 2, MsgBytes: 64}, Alg: "binomial", AlgIdx: 0}
	ts.Add(c, 100, 700)
	if !ts.Has(c) || ts.Len() != 1 {
		t.Fatal("Add/Has broken")
	}
	var m featspace.Matrix
	y := ts.FillMatrix(&m)
	if m.Rows() != 1 || m.Cols() != featspace.NumFeatures {
		t.Fatalf("matrix shape %dx%d", m.Rows(), m.Cols())
	}
	if math.Abs(y[0]-math.Log(100)) > 1e-12 {
		t.Errorf("target = %v, want log(100)", y[0])
	}
	ts.FillMatrixForAlg(&m, "binomial")
	if m.Rows() != 1 || m.Cols() != featspace.NumFeatures-1 {
		t.Errorf("per-alg matrix shape %dx%d", m.Rows(), m.Cols())
	}
	if y := ts.FillMatrixForAlg(&m, "ring"); m.Rows() != 0 || y != nil {
		t.Error("per-alg matrix leaked other algorithms")
	}
}

// TestFillMatrixMatchesMatrix: the flat training-set renderings feed
// forest.TrainMatrix each sample's feature encoding (with the
// algorithm index for the unified design, without it per algorithm)
// and its log-time target, in sample order.
func TestFillMatrixMatchesMatrix(t *testing.T) {
	ts := NewTrainingSet(coll.Bcast)
	for i, alg := range []string{"binomial", "ring", "binomial", "scatter_allgather"} {
		ts.Add(Candidate{
			Point:  featspace.Point{Nodes: 2 << i, PPN: 2, MsgBytes: 64 << i},
			Alg:    alg,
			AlgIdx: i % 3,
		}, float64(100+i*7), 700)
	}
	row := func(m *featspace.Matrix, i int) []float64 {
		c := m.Cols()
		return m.Data()[i*c : (i+1)*c]
	}
	sameRow := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}

	var m featspace.Matrix
	y := ts.FillMatrix(&m)
	if m.Rows() != ts.Len() || m.Cols() != featspace.NumFeatures || len(y) != ts.Len() {
		t.Fatalf("FillMatrix shape %dx%d with %d targets, want %dx%d", m.Rows(), m.Cols(), len(y), ts.Len(), featspace.NumFeatures)
	}
	for i, s := range ts.Samples {
		if want := featspace.Features(s.Candidate.Point, s.Candidate.AlgIdx); !sameRow(row(&m, i), want) {
			t.Fatalf("FillMatrix row %d = %v, want %v", i, row(&m, i), want)
		}
		if y[i] != math.Log(s.Mean) {
			t.Fatalf("FillMatrix target %d = %v, want %v", i, y[i], math.Log(s.Mean))
		}
	}

	for _, alg := range []string{"binomial", "ring", "missing"} {
		ya := ts.FillMatrixForAlg(&m, alg)
		var want []Sample
		for _, s := range ts.Samples {
			if s.Candidate.Alg == alg {
				want = append(want, s)
			}
		}
		if m.Rows() != len(want) || len(ya) != len(want) {
			t.Fatalf("%s: FillMatrixForAlg %d rows / %d targets, want %d",
				alg, m.Rows(), len(ya), len(want))
		}
		for i, s := range want {
			if w := featspace.Features(s.Candidate.Point); !sameRow(row(&m, i), w) {
				t.Fatalf("%s: per-alg row %d = %v, want %v", alg, i, row(&m, i), w)
			}
			if ya[i] != math.Log(s.Mean) {
				t.Fatalf("%s: per-alg target %d differs", alg, i)
			}
		}
	}
}

// trainOn collects every candidate into a training set from the dataset.
func trainOn(t *testing.T, ds *dataset.Dataset, cl coll.Collective) *TrainingSet {
	t.Helper()
	ts := NewTrainingSet(cl)
	for _, c := range Candidates(cl, tinySpace(), 64) {
		mean, ok := ds.TimeOf(cl, c.Alg, c.Point)
		if !ok {
			t.Fatalf("dataset missing %v", c)
		}
		ts.Add(c, mean, mean*7)
	}
	return ts
}

func TestUnifiedModelLearnsSelections(t *testing.T) {
	ds := tinyDataset(t)
	ts := trainOn(t, ds, coll.Bcast)
	m, err := TrainModel(forest.Config{Seed: 1, NTrees: 40}, ts)
	if err != nil {
		t.Fatal(err)
	}
	// With the full feature space as training data, the model's
	// selections must be near-optimal on the training points.
	sd, err := EvalSlowdown(ds, coll.Bcast, tinySpace().Points(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sd > 1.10 {
		t.Errorf("fully trained unified model slowdown = %v", sd)
	}
	// Variance is non-negative and finite everywhere.
	var a Arena
	cands := Candidates(coll.Bcast, tinySpace(), 64)
	for i, v := range m.VarianceBatchInto(&a, cands) {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("bad variance %v for %v", v, cands[i])
		}
	}
}

func TestPerAlgModelLearnsSelections(t *testing.T) {
	ds := tinyDataset(t)
	ts := trainOn(t, ds, coll.Reduce)
	m, err := TrainPerAlg(forest.Config{Seed: 2, NTrees: 40}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.kernels) != coll.NumAlgorithms(coll.Reduce) {
		t.Errorf("forests = %d", len(m.kernels))
	}
	sd, err := EvalSlowdown(ds, coll.Reduce, tinySpace().Points(), m)
	if err != nil {
		t.Fatal(err)
	}
	if sd > 1.10 {
		t.Errorf("fully trained per-alg model slowdown = %v", sd)
	}
}

func TestTrainPerAlgPartialAlgorithms(t *testing.T) {
	ts := NewTrainingSet(coll.Bcast)
	c := Candidate{Point: featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 8}, Alg: "binomial", AlgIdx: 0}
	ts.Add(c, 10, 70)
	ts.Add(Candidate{Point: featspace.Point{Nodes: 4, PPN: 1, MsgBytes: 8}, Alg: "binomial", AlgIdx: 0}, 20, 140)
	m, err := TrainPerAlg(forest.Config{Seed: 3}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.kernels) != 1 {
		t.Errorf("forests = %d, want 1", len(m.kernels))
	}
	// Selection falls back to the only trained algorithm.
	if got := m.Select(featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 8}); got != "binomial" {
		t.Errorf("Select = %s", got)
	}
	if _, err := TrainPerAlg(forest.Config{}, NewTrainingSet(coll.Bcast)); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestEvalSlowdownOptimalIsOne(t *testing.T) {
	ds := tinyDataset(t)
	oracle := SelectorFunc(func(p featspace.Point) string {
		alg, _, _ := ds.Best(coll.Allreduce, p)
		return alg
	})
	sd, err := EvalSlowdown(ds, coll.Allreduce, tinySpace().Points(), oracle)
	if err != nil {
		t.Fatal(err)
	}
	if sd != 1 {
		t.Errorf("oracle slowdown = %v, want exactly 1", sd)
	}
}

func TestEvalSlowdownWorstCase(t *testing.T) {
	ds := tinyDataset(t)
	worst := SelectorFunc(func(p featspace.Point) string {
		bestAlg, _, _ := ds.Best(coll.Bcast, p)
		// Pick any algorithm that is not the best.
		for _, a := range coll.AlgorithmNames(coll.Bcast) {
			if a != bestAlg {
				return a
			}
		}
		return bestAlg
	})
	sd, err := EvalSlowdown(ds, coll.Bcast, tinySpace().Points(), worst)
	if err != nil {
		t.Fatal(err)
	}
	if sd <= 1 {
		t.Errorf("anti-oracle slowdown = %v, want > 1", sd)
	}
}

func TestEvalSlowdownErrors(t *testing.T) {
	ds := tinyDataset(t)
	sel := SelectorFunc(func(featspace.Point) string { return "binomial" })
	if _, err := EvalSlowdown(ds, coll.Bcast, nil, sel); err == nil {
		t.Error("no points should error")
	}
	missing := []featspace.Point{{Nodes: 999, PPN: 1, MsgBytes: 8}}
	if _, err := EvalSlowdown(ds, coll.Bcast, missing, sel); err == nil {
		t.Error("all points missing should error")
	}
	badSel := SelectorFunc(func(featspace.Point) string { return "no_such_alg" })
	if _, err := EvalSlowdown(ds, coll.Bcast, tinySpace().Points(), badSel); err == nil {
		t.Error("unpriceable selection should error")
	}
}

func TestLearningCurve(t *testing.T) {
	ds := tinyDataset(t)
	ts := trainOn(t, ds, coll.Bcast)
	order := ts.Samples
	fracs := []float64{0.1, 0.5, 1.0}
	curve, err := LearningCurve(coll.Bcast, order, fracs,
		func(ts *TrainingSet) (Selector, error) {
			return TrainModel(forest.Config{Seed: 4, NTrees: 20}, ts)
		},
		func(s Selector) (float64, error) {
			return EvalSlowdown(ds, coll.Bcast, tinySpace().Points(), s)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve points = %d", len(curve))
	}
	for i, cp := range curve {
		if cp.Slowdown < 1 {
			t.Errorf("point %d slowdown = %v < 1", i, cp.Slowdown)
		}
		if i > 0 && cp.Samples <= curve[i-1].Samples {
			t.Errorf("samples not increasing: %v", curve)
		}
		if cp.CollectionTime <= 0 {
			t.Errorf("point %d has no collection time", i)
		}
	}
	// Tiny fractions that round below 2 samples are skipped.
	c2, err := LearningCurve(coll.Bcast, order[:4], []float64{0.01}, nil, nil)
	if err != nil || len(c2) != 0 {
		t.Errorf("sub-minimal fraction not skipped: %v, %v", c2, err)
	}
}

// TestBatchEquivalence: the batched model APIs must agree exactly with
// their per-point counterparts and across worker counts — this is what
// lets the selection loops in core, fact, and hunold fan out without
// changing results.
func TestBatchEquivalence(t *testing.T) {
	ds := tinyDataset(t)
	ts := trainOn(t, ds, coll.Bcast)
	cands := Candidates(coll.Bcast, tinySpace(), 64)
	pts := tinySpace().Points()

	var serial []float64 // Workers=1 variances
	for _, workers := range []int{1, 4} {
		m, err := TrainModel(forest.Config{Seed: 5, NTrees: 25, Workers: workers}, ts)
		if err != nil {
			t.Fatal(err)
		}
		var a, one Arena
		vs := m.VarianceBatchInto(&a, cands)
		if len(vs) != len(cands) {
			t.Fatalf("VarianceBatchInto length %d, want %d", len(vs), len(cands))
		}
		for i := range cands {
			if v := m.VarianceBatchInto(&one, cands[i:i+1])[0]; vs[i] != v {
				t.Fatalf("workers=%d VarianceBatchInto[%d] = %v, one-candidate sweep = %v", workers, i, vs[i], v)
			}
			if serial != nil && vs[i] != serial[i] {
				t.Fatalf("workers=%d VarianceBatchInto[%d] = %v, Workers=1 = %v", workers, i, vs[i], serial[i])
			}
		}
		if serial == nil {
			serial = append([]float64(nil), vs...)
		}
		sels := m.SelectBatch(pts)
		for i, p := range pts {
			if sels[i] != m.Select(p) {
				t.Fatalf("workers=%d SelectBatch[%d] = %q, Select = %q", workers, i, sels[i], m.Select(p))
			}
		}

		pam, err := TrainPerAlg(forest.Config{Seed: 6, NTrees: 25, Workers: workers}, ts)
		if err != nil {
			t.Fatal(err)
		}
		psels := pam.SelectBatch(pts)
		for i, p := range pts {
			if psels[i] != pam.Select(p) {
				t.Fatalf("workers=%d PerAlg SelectBatch[%d] = %q, Select = %q", workers, i, psels[i], pam.Select(p))
			}
		}
	}
}

// TestEvalSlowdownBatchPath: EvalSlowdown must return the same value
// whether the selector exposes the batched interface or not.
func TestEvalSlowdownBatchPath(t *testing.T) {
	ds := tinyDataset(t)
	ts := trainOn(t, ds, coll.Bcast)
	m, err := TrainModel(forest.Config{Seed: 7, NTrees: 25}, ts)
	if err != nil {
		t.Fatal(err)
	}
	pts := tinySpace().Points()
	// m is a BatchSelector; wrapping its Select in a SelectorFunc hides
	// the batch interface and forces the per-point path.
	batched, err := EvalSlowdown(ds, coll.Bcast, pts, m)
	if err != nil {
		t.Fatal(err)
	}
	pointwise, err := EvalSlowdown(ds, coll.Bcast, pts, SelectorFunc(m.Select))
	if err != nil {
		t.Fatal(err)
	}
	if batched != pointwise {
		t.Errorf("batched EvalSlowdown = %v, pointwise = %v", batched, pointwise)
	}
}

// TestEvalSlowdownSkipsUnbenchmarked: the selector must only be asked
// about points the dataset can price, even on the batched path.
func TestEvalSlowdownSkipsUnbenchmarked(t *testing.T) {
	ds := tinyDataset(t)
	pts := append([]featspace.Point{{Nodes: 999, PPN: 1, MsgBytes: 8}}, tinySpace().Points()...)
	sel := SelectorFunc(func(p featspace.Point) string {
		if p.Nodes == 999 {
			t.Fatal("selector queried at an unbenchmarked point")
		}
		alg, _, _ := ds.Best(coll.Bcast, p)
		return alg
	})
	sd, err := EvalSlowdown(ds, coll.Bcast, pts, sel)
	if err != nil {
		t.Fatal(err)
	}
	if sd != 1 {
		t.Errorf("oracle slowdown = %v, want 1", sd)
	}
}
