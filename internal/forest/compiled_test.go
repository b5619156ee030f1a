package forest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// trainedKernel fits a forest on a noisy nonlinear target and compiles
// it, returning both paths plus a query batch.
func trainedKernel(t testing.TB, cfg Config, nSamples, nQueries int) (*Forest, *Kernel, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := make([][]float64, nSamples)
	y := make([]float64, nSamples)
	for i := range x {
		x[i] = []float64{rng.Float64() * 16, rng.Float64() * 8, rng.Float64() * 20, rng.Float64()}
		y[i] = math.Log1p(x[i][0]*x[i][2]) + math.Sin(x[i][1]) + rng.NormFloat64()*0.05
	}
	f, err := trainRows(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, nQueries)
	for i := range qs {
		qs[i] = []float64{rng.Float64() * 20, rng.Float64() * 10, rng.Float64() * 24, rng.Float64() * 2}
	}
	return f, f.Compile(), qs
}

// flatten concatenates equal-length rows into one row-major buffer.
func flatten(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	flat := make([]float64, 0, len(xs)*len(xs[0]))
	for _, x := range xs {
		flat = append(flat, x...)
	}
	return flat
}

// TestCompiledBitIdentical is the core contract: every kernel entry
// point reproduces the per-row reference walk bit for bit, at several
// Workers settings and batch sizes (crossing block boundaries both
// ways), and each Workers setting reproduces the Workers=1 outputs.
func TestCompiledBitIdentical(t *testing.T) {
	type scores struct{ mean, vari []float64 }
	serial := map[int]scores{} // Workers=1 outputs by batch size
	for _, workers := range []int{1, 2, 3, 4, 0} {
		for _, nq := range []int{1, 7, blockQ, blockQ + 1, 3*blockQ + 11} {
			t.Run(fmt.Sprintf("workers=%d/nq=%d", workers, nq), func(t *testing.T) {
				cfg := Config{NTrees: 12, MaxDepth: 8, Seed: 3, Workers: workers}
				f, k, qs := trainedKernel(t, cfg, 400, nq)
				wantP, wantV := oracleScores(f, qs)

				flat := flatten(qs)
				mean := make([]float64, nq)
				vari := make([]float64, nq)
				k.ScoreFlat(flat, mean, vari)
				out := make([]float64, nq)
				k.PredictFlat(flat, out)
				for i := range qs {
					if mean[i] != wantP[i] || vari[i] != wantV[i] {
						t.Fatalf("ScoreFlat[%d]: (%v, %v) != reference (%v, %v)",
							i, mean[i], vari[i], wantP[i], wantV[i])
					}
					if out[i] != wantP[i] {
						t.Fatalf("PredictFlat[%d]: %v != %v", i, out[i], wantP[i])
					}
					if got := k.Predict(qs[i]); got != wantP[i] {
						t.Fatalf("Predict[%d]: kernel %v != reference %v", i, got, wantP[i])
					}
				}

				want, ok := serial[nq]
				if !ok {
					serial[nq] = scores{mean, vari}
					return
				}
				for i := range qs {
					if mean[i] != want.mean[i] || vari[i] != want.vari[i] {
						t.Fatalf("ScoreFlat[%d]: (%v, %v) != Workers=1 (%v, %v)",
							i, mean[i], vari[i], want.mean[i], want.vari[i])
					}
				}
			})
		}
	}
}

// TestCompiledPureLeafTrees compiles a forest whose trees are all
// single leaves (constant target collapses every split).
func TestCompiledPureLeafTrees(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []float64{7, 7, 7}
	f, err := trainRows(Config{NTrees: 5, Seed: 1}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	k := f.Compile()
	if len(k.meta) != 5 {
		t.Fatalf("pure-leaf forest compiled to %d nodes, want 5", len(k.meta))
	}
	q := []float64{100, -3}
	if got, want := k.Predict(q), f.Predict(q); got != want {
		t.Fatalf("Predict on pure-leaf kernel: %v != %v", got, want)
	}
	vari := make([]float64, 1)
	k.ScoreFlat(q, nil, vari)
	if want := f.JackknifeVariance(q); vari[0] != want {
		t.Fatalf("variance on pure-leaf kernel: %v != %v", vari[0], want)
	}
}

// TestCompiledSingleTree covers the jackknife degenerate case NTrees=1
// (the reference returns variance 0 for ensembles smaller than 2).
func TestCompiledSingleTree(t *testing.T) {
	cfg := Config{NTrees: 1, MaxDepth: 6, Seed: 9, Workers: 1}
	f, k, qs := trainedKernel(t, cfg, 200, 50)
	wantP, wantV := oracleScores(f, qs)
	mean := make([]float64, len(qs))
	vari := make([]float64, len(qs))
	k.ScoreFlat(flatten(qs), mean, vari)
	for i := range qs {
		if mean[i] != wantP[i] {
			t.Fatalf("single-tree mean[%d]: %v != %v", i, mean[i], wantP[i])
		}
		if vari[i] != 0 || wantV[i] != 0 {
			t.Fatalf("single-tree variance[%d]: kernel %v, reference %v, want 0", i, vari[i], wantV[i])
		}
	}
}

// TestCompiledEmptyBatch checks the zero-row cases on both batch entry
// points: nothing to score, nothing to panic about.
func TestCompiledEmptyBatch(t *testing.T) {
	_, k, _ := trainedKernel(t, Config{NTrees: 4, Seed: 2}, 100, 0)
	k.ScoreFlat(nil, nil, nil)
	k.ScoreFlat([]float64{}, []float64{}, []float64{})
	k.PredictFlat(nil, nil)
}

// panicMessage runs fn and returns the recovered panic value's string.
func panicMessage(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
	}()
	if msg == "" {
		t.Fatal("expected a panic")
	}
	return msg
}

// TestCompiledRaggedRowPanic asserts the kernel panics with the exact
// message the reference walk uses for a wrong-width row, and rejects
// flat batches whose length does not match the row count.
func TestCompiledRaggedRowPanic(t *testing.T) {
	f, k, _ := trainedKernel(t, Config{NTrees: 3, Seed: 4}, 100, 0)
	short := []float64{1, 2}
	want := panicMessage(t, func() { f.Predict(short) })

	if got := panicMessage(t, func() { k.Predict(short) }); got != want {
		t.Fatalf("Predict panic:\n got %q\nwant %q", got, want)
	}

	// The flat entry points reject length mismatches too (panicMessage
	// fails the test if no panic arrives).
	panicMessage(t, func() { k.ScoreFlat(make([]float64, 5), nil, make([]float64, 2)) })
	panicMessage(t, func() { k.ScoreFlat(make([]float64, 8), make([]float64, 1), make([]float64, 2)) })
	panicMessage(t, func() { k.PredictFlat(make([]float64, 5), make([]float64, 2)) })
}

// TestCompiledConcurrentScoring hammers one shared kernel from many
// goroutines (run under -race in CI): the node arrays are read-only and
// scratch is pooled, so concurrent batch scoring must be safe and
// bit-identical.
func TestCompiledConcurrentScoring(t *testing.T) {
	cfg := Config{NTrees: 10, MaxDepth: 8, Seed: 6, Workers: 2}
	f, k, qs := trainedKernel(t, cfg, 300, 200)
	_, want := oracleScores(f, qs)
	flat := flatten(qs)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vari := make([]float64, len(qs))
			for it := 0; it < 20; it++ {
				k.ScoreFlat(flat, nil, vari)
				for i := range vari {
					if vari[i] != want[i] {
						errs <- fmt.Errorf("concurrent ScoreFlat[%d]: %v != %v", i, vari[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestKernelZeroAlloc is the runtime half of the //acclaim:zeroalloc
// annotations: steady-state serial scoring through the flat entry
// points performs zero allocations per op (testing.AllocsPerRun).
func TestKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates inside sync.Pool")
	}
	cfg := Config{NTrees: 8, MaxDepth: 8, Seed: 5, Workers: 1}
	_, k, qs := trainedKernel(t, cfg, 300, 3*blockQ+7)
	flat := flatten(qs)
	mean := make([]float64, len(qs))
	vari := make([]float64, len(qs))
	q := qs[0]

	// Quiesce training garbage, then warm the scratch pool once; the
	// steady state starts here (a GC mid-measurement would empty the
	// pool and charge the refill to the measured path).
	runtime.GC()
	k.ScoreFlat(flat, mean, vari)

	if n := testing.AllocsPerRun(100, func() { k.ScoreFlat(flat, mean, vari) }); n != 0 {
		t.Errorf("ScoreFlat allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { k.PredictFlat(flat, mean) }); n != 0 {
		t.Errorf("PredictFlat allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = k.Predict(q) }); n != 0 {
		t.Errorf("Predict allocates %v per op, want 0", n)
	}
}

// TestCompileLayout checks the packed layout Compile serves: the node
// count is the trees' total, every leaf is a self-loop with a NaN
// threshold, every internal node's right child lies inside its own tree
// after the adjacent left child i+1, and the kernel holds 24 bytes per
// node, in arrays shared with the forest rather than copied.
func TestCompileLayout(t *testing.T) {
	f, k, _ := trainedKernel(t, Config{NTrees: 6, MaxDepth: 6, Seed: 8}, 300, 0)
	total := 0
	for _, tr := range f.unpack() {
		total += len(tr.nodes)
	}
	if len(k.meta) != total || len(k.thresh) != total || len(k.value) != total {
		t.Fatalf("kernel arrays hold %d/%d/%d nodes, forest trees hold %d",
			len(k.meta), len(k.thresh), len(k.value), total)
	}
	if k.nTrees != len(f.roots) || k.NumFeatures() != f.NumFeatures() {
		t.Fatalf("kernel shape (%d trees, %d features) != forest (%d, %d)",
			k.nTrees, k.NumFeatures(), len(f.roots), f.NumFeatures())
	}
	if &k.meta[0] != &f.meta[0] || &k.thresh[0] != &f.thresh[0] || &k.value[0] != &f.value[0] {
		t.Fatal("Compile copied the node arrays")
	}
	for ti := 0; ti < k.nTrees; ti++ {
		lo := int(k.roots[ti])
		hi := total
		if ti+1 < k.nTrees {
			hi = int(k.roots[ti+1])
		}
		for j := lo; j < hi; j++ {
			m := k.meta[j]
			r, feat := int(m>>32), int(int32(m))
			if r == j {
				if feat != 0 || !math.IsNaN(k.thresh[j]) {
					t.Fatalf("leaf node %d: feature slot %d, threshold %v; want a self-loop on slot 0 with a NaN threshold", j, feat, k.thresh[j])
				}
				continue
			}
			if r <= j+1 || r >= hi {
				t.Fatalf("node %d right child %d is not after its left child %d inside tree %d's range [%d, %d)", j, r, j+1, ti, lo, hi)
			}
			if feat < 0 || feat >= k.NumFeatures() || math.IsNaN(k.thresh[j]) {
				t.Fatalf("internal node %d: feature %d, threshold %v", j, feat, k.thresh[j])
			}
		}
	}

	// Every per-node array of the kernel, found by reflection so a new
	// one cannot slip in unnoticed, adds up to 24 bytes a node.
	perNode := 0
	var sum func(v reflect.Value)
	sum = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			fv := v.Field(i)
			switch {
			case fv.Kind() == reflect.Struct:
				sum(fv)
			case fv.Kind() == reflect.Slice && fv.Len() == total:
				perNode += int(fv.Type().Elem().Size())
			}
		}
	}
	sum(reflect.ValueOf(k).Elem())
	if perNode != 24 {
		t.Fatalf("kernel holds %d bytes per node, want 24", perNode)
	}
}
