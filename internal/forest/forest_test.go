package forest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"acclaim/internal/featspace"
)

// grid2d builds a simple 2-feature dataset from a target function.
func grid2d(n int, fn func(a, b float64) float64) (x [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := float64(i), float64(j)
			x = append(x, []float64{a, b})
			y = append(y, fn(a, b))
		}
	}
	return x, y
}

// TestTrainValidation: TrainMatrix rejects each malformed input, bad
// Config field and forest the node layout cannot encode with its own
// error, before any goroutine starts.
func TestTrainValidation(t *testing.T) {
	var noRows featspace.Matrix
	noRows.Reset(2)
	var twoRows featspace.Matrix
	twoRows.AppendRow(1, 2)
	twoRows.AppendRow(3, 4)
	wide := func(cols int) *featspace.Matrix {
		var m featspace.Matrix
		m.AppendRow(make([]float64, cols)...)
		m.AppendRow(make([]float64, cols)...)
		return &m
	}
	two := []float64{1, 2}
	for _, tc := range []struct {
		name string
		cfg  Config
		m    *featspace.Matrix
		y    []float64
		want string
	}{
		{"zero rows", Config{}, &noRows, nil, "forest: no training samples"},
		{"target mismatch", Config{}, &twoRows, []float64{1, 2, 3}, "forest: 2 samples but 3 targets"},
		{"zero cols", Config{}, &featspace.Matrix{}, nil, "forest: samples have no features"},
		{"negative NTrees", Config{NTrees: -1}, &twoRows, two, "forest: Config.NTrees is -1, want >= 0"},
		{"negative MaxDepth", Config{MaxDepth: -2}, &twoRows, two, "forest: Config.MaxDepth is -2, want >= 0"},
		{"negative MinLeaf", Config{MinLeaf: -1}, &twoRows, two, "forest: Config.MinLeaf is -1, want >= 0"},
		{"negative MTry", Config{MTry: -1, Workers: 2}, &twoRows, two, "forest: Config.MTry is -1, want >= 0"},
		{"too many columns", Config{}, wide(maxColumns + 1), two, "forest: 128 feature columns, the node layout holds at most 127"},
	} {
		_, err := TrainMatrix(tc.cfg, tc.m, tc.y)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: TrainMatrix error = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := TrainMatrix(Config{NTrees: 2, Seed: 1}, wide(maxColumns), two); err != nil {
		t.Errorf("%d columns: %v", maxColumns, err)
	}

	// Right-child offsets: a tree may reach 2·min(n/MinLeaf, 2^MaxDepth)
	// − 1 nodes, so 2^23 samples at depth 30 fit and one more does not.
	// checkLayout is TrainMatrix's check, called without a 64 MB matrix.
	deep := Config{MaxDepth: 30}.withDefaults(1)
	if err := checkLayout(deep, 1<<23, 1); err != nil {
		t.Errorf("2^23 samples at depth 30: %v", err)
	}
	want := "forest: a tree of 8388609 samples may reach 16777217 nodes, the node layout holds at most 16777215 (raise MinLeaf or lower MaxDepth)"
	if err := checkLayout(deep, 1<<23+1, 1); err == nil || err.Error() != want {
		t.Errorf("2^23+1 samples at depth 30: error = %v, want %q", err, want)
	}
	deep.MinLeaf = 2
	if err := checkLayout(deep, 1<<23+1, 1); err != nil {
		t.Errorf("2^23+1 samples at MinLeaf 2: %v", err)
	}
}

func TestConstantTarget(t *testing.T) {
	x, y := grid2d(5, func(a, b float64) float64 { return 7 })
	f, err := trainRows(Config{Seed: 1}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{2, 2}); got != 7 {
		t.Errorf("constant prediction = %v, want 7", got)
	}
	if v := f.JackknifeVariance([]float64{2, 2}); v != 0 {
		t.Errorf("constant variance = %v, want 0", v)
	}
}

func TestLearnsStepFunction(t *testing.T) {
	// A step in feature 0 is the easiest tree target.
	x, y := grid2d(8, func(a, b float64) float64 {
		if a < 4 {
			return 10
		}
		return 20
	})
	f, err := trainRows(Config{Seed: 2}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{1, 3}); math.Abs(got-10) > 0.5 {
		t.Errorf("left prediction = %v, want ~10", got)
	}
	if got := f.Predict([]float64{6, 3}); math.Abs(got-20) > 0.5 {
		t.Errorf("right prediction = %v, want ~20", got)
	}
}

func TestLearnsInteraction(t *testing.T) {
	x, y := grid2d(10, func(a, b float64) float64 {
		if (a < 5) == (b < 5) {
			return 1
		}
		return -1
	})
	f, err := trainRows(Config{Seed: 3, NTrees: 40}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{2, 2}, 1}, {[]float64{7, 7}, 1}, {[]float64{2, 7}, -1}, {[]float64{7, 2}, -1},
	} {
		if got := f.Predict(tc.in); math.Abs(got-tc.want) > 0.4 {
			t.Errorf("Predict(%v) = %v, want ~%v", tc.in, got, tc.want)
		}
	}
}

func TestRegressionQuality(t *testing.T) {
	// Smooth target: forest should interpolate reasonably.
	x, y := grid2d(12, func(a, b float64) float64 { return 3*a + 2*b })
	f, err := trainRows(Config{Seed: 4, NTrees: 50}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	var sse, tot float64
	for i := range x {
		d := f.Predict(x[i]) - y[i]
		sse += d * d
		tot += y[i] * y[i]
	}
	if sse/tot > 0.02 {
		t.Errorf("relative training error %v too high", sse/tot)
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := grid2d(6, func(a, b float64) float64 { return a * b })
	f1, _ := trainRows(Config{Seed: 5}, x, y)
	f2, _ := trainRows(Config{Seed: 5}, x, y)
	for i := 0; i < 6; i++ {
		in := []float64{float64(i), float64(i) / 2}
		if f1.Predict(in) != f2.Predict(in) {
			t.Fatal("same seed produced different forests")
		}
	}
	f3, _ := trainRows(Config{Seed: 6}, x, y)
	diff := false
	for i := 0; i < 36; i++ {
		in := []float64{float64(i % 6), float64(i / 6)}
		if f1.Predict(in) != f3.Predict(in) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical forests (suspicious)")
	}
}

func TestVarianceHigherAwayFromData(t *testing.T) {
	// Train only on the left half of the domain; variance on the unseen
	// right half should exceed variance on the seen region on average.
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := rng.Float64() * 5 // seen region [0,5)
		b := rng.Float64() * 10
		x = append(x, []float64{a, b})
		y = append(y, math.Sin(a)+b*b/10+rng.NormFloat64()*0.05)
	}
	f, err := trainRows(Config{Seed: 8, NTrees: 50}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	var seen, unseen float64
	for i := 0; i < 50; i++ {
		b := float64(i) / 5
		seen += f.JackknifeVariance([]float64{2.5, b})
		unseen += f.JackknifeVariance([]float64{9.5, b})
	}
	if unseen <= seen {
		t.Errorf("variance in unseen region (%v) not above seen region (%v)", unseen, seen)
	}
}

func TestTreePredictionsFeedJackknife(t *testing.T) {
	x, y := grid2d(6, func(a, b float64) float64 { return a + b })
	f, _ := trainRows(Config{Seed: 9, NTrees: 10}, x, y)
	p := f.TreePredictions([]float64{2, 2})
	if len(p) != 10 {
		t.Fatalf("TreePredictions length = %d", len(p))
	}
	var mean float64
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	if math.Abs(mean-f.Predict([]float64{2, 2})) > 1e-12 {
		t.Error("Predict is not the mean of TreePredictions")
	}
}

func TestMinLeafRespected(t *testing.T) {
	x, y := grid2d(6, func(a, b float64) float64 { return a })
	f, err := trainRows(Config{Seed: 10, MinLeaf: 36}, x, y) // leaf >= whole bootstrap
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf = n, every tree is a single leaf: zero variance.
	if v := f.JackknifeVariance([]float64{3, 3}); v > 1e-6 {
		// Bootstrap means differ slightly; variance must still be tiny
		// relative to the target range (0..5).
		if v > 0.5 {
			t.Errorf("stump forest variance = %v, too high", v)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	x, y := grid2d(3, func(a, b float64) float64 { return a })
	f, err := trainRows(Config{}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.roots) != 30 {
		t.Errorf("default NTrees = %d, want 30", len(f.roots))
	}
	if f.NumFeatures() != 2 {
		t.Errorf("NumFeatures = %d", f.NumFeatures())
	}
}

func TestPredictDimensionPanic(t *testing.T) {
	x, y := grid2d(3, func(a, b float64) float64 { return a })
	f, _ := trainRows(Config{}, x, y)
	defer func() {
		if recover() == nil {
			t.Error("wrong dimensionality should panic")
		}
	}()
	f.Predict([]float64{1})
}

// Property: predictions always lie within the range of training targets
// (tree means cannot extrapolate beyond observed y values).
func TestPredictionBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		x := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			y[i] = rng.NormFloat64() * 100
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		fr, err := trainRows(Config{Seed: seed, NTrees: 10}, x, y)
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			p := fr.Predict([]float64{rng.Float64() * 20, rng.Float64() * 20})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: jackknife variance is non-negative everywhere.
func TestVarianceNonNegativeProperty(t *testing.T) {
	x, y := grid2d(8, func(a, b float64) float64 { return a*b - a })
	fr, _ := trainRows(Config{Seed: 11}, x, y)
	f := func(a, b float64) bool {
		return fr.JackknifeVariance([]float64{math.Mod(math.Abs(a), 10), math.Mod(math.Abs(b), 10)}) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMTrySubsampling(t *testing.T) {
	x, y := grid2d(8, func(a, b float64) float64 { return a + 2*b })
	f, err := trainRows(Config{Seed: 12, MTry: 1, NTrees: 40}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Even with MTry=1 the ensemble should still learn the trend.
	if f.Predict([]float64{7, 7}) <= f.Predict([]float64{0, 0}) {
		t.Error("MTry=1 forest failed to learn increasing trend")
	}
}

// refTrain is a frozen copy of the original serial training loop (one
// master RNG, trees grown strictly in order, builder RNG seeded from
// the master stream after each bootstrap). The parallel TrainMatrix must
// reproduce it bit for bit at every worker count.
func refTrain(cfg Config, x [][]float64, y []float64) *Forest {
	cfg = cfg.withDefaults(len(x[0]))
	grown := make([]grownTree, cfg.NTrees)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for ti := range grown {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		b := &builder{x: x, y: y, cfg: cfg}
		b.rng = rand.New(rand.NewSource(rng.Int63()))
		b.nodes = make([]node, 0)
		b.grow(idx, 0)
		a := new(packed)
		depth := appendTree(a, b.nodes)
		grown[ti] = grownTree{arena: a, end: len(a.meta), depth: depth}
	}
	f := &Forest{cfg: cfg, nFeatures: len(x[0])}
	f.concat(grown)
	return f
}

// forestsIdentical compares two forests node by node.
func forestsIdentical(a, b *Forest) bool {
	at, bt := a.unpack(), b.unpack()
	if len(at) != len(bt) {
		return false
	}
	for ti := range at {
		ta, tb := at[ti].nodes, bt[ti].nodes
		if len(ta) != len(tb) {
			return false
		}
		for ni := range ta {
			if ta[ni] != tb[ni] {
				return false
			}
		}
	}
	return true
}

// TestParallelTrainingBitIdentical is the determinism contract of the
// worker pool: for a fixed seed, Workers=1, Workers=N, and the frozen
// serial reference all produce the same forest, the same Predict
// values, and the same JackknifeVariance values.
func TestParallelTrainingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		y[i] = math.Sin(x[i][0]) + x[i][1]*x[i][2]/10 + rng.NormFloat64()*0.1
	}
	for _, cfg := range []Config{
		{Seed: 21, NTrees: 17},
		{Seed: 22, NTrees: 8, MTry: 2, MaxDepth: 6, MinLeaf: 3},
	} {
		ref := refTrain(cfg, x, y)
		for _, workers := range []int{1, 2, 3, 8, 33} {
			c := cfg
			c.Workers = workers
			f, err := trainRows(c, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if !forestsIdentical(ref, f) {
				t.Fatalf("Workers=%d forest differs from serial reference (cfg %+v)", workers, cfg)
			}
			for i := 0; i < 20; i++ {
				in := []float64{rng.Float64() * 12, rng.Float64() * 12, rng.Float64() * 12}
				if ref.Predict(in) != f.Predict(in) {
					t.Fatalf("Workers=%d Predict differs", workers)
				}
				if ref.JackknifeVariance(in) != f.JackknifeVariance(in) {
					t.Fatalf("Workers=%d JackknifeVariance differs", workers)
				}
			}
		}
	}
}
