package forest

import (
	"math/rand"
	"sync"
	"testing"

	"acclaim/internal/featspace"
)

// trainerData builds a dataset with deliberately duplicate-heavy
// columns: feature values are drawn from small integer grids, so nodes
// are full of ties and the stable-order contract between the reference
// sort and the trainer's counting sort actually carries weight.
func trainerData(seed int64, n, nf int) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for j := range row {
			row[j] = float64(rng.Intn(6)) // 6 distinct values per feature
		}
		x[i] = row
		y[i] = row[0]*2 - row[nf-1] + rng.NormFloat64()*0.3
	}
	return x, y
}

// TestTrainerMatchesReference is the serial form of the differential
// contract: on tie-heavy data and across hyperparameter corners, the
// compiled trainer's forest equals the reference builder's node for
// node.
func TestTrainerMatchesReference(t *testing.T) {
	x, y := trainerData(101, 250, 4)
	for _, cfg := range []Config{
		{Seed: 1, NTrees: 9},
		{Seed: 2, NTrees: 5, MaxDepth: 3},
		{Seed: 3, NTrees: 7, MinLeaf: 7},
		{Seed: 4, NTrees: 6, MTry: 1},
		{Seed: 5, NTrees: 4, MTry: 2, MaxDepth: 5, MinLeaf: 2},
	} {
		cfg.Workers = 1
		want := trainReference(cfg, x, y)
		got, err := trainRows(cfg, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !forestsIdentical(want, got) {
			t.Errorf("cfg %+v: compiled trainer differs from reference builder", cfg)
		}
	}
}

// TestTrainerConstantTargets: constant-target columns make every
// node's SSE zero, so growth must stop at the root of every tree (the
// sse <= 1e-12 bail), matching the reference exactly.
func TestTrainerConstantTargets(t *testing.T) {
	x, _ := trainerData(7, 80, 3)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = -2.5
	}
	cfg := Config{Seed: 11, NTrees: 6, Workers: 1}
	want := trainReference(cfg, x, y)
	got, err := trainRows(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got) {
		t.Fatal("constant-target forests differ")
	}
	for _, tr := range got.unpack() {
		if len(tr.nodes) != 1 || tr.nodes[0].value != -2.5 {
			t.Fatalf("constant-target tree = %+v, want single leaf at -2.5", tr.nodes)
		}
	}
}

// TestTrainerSingleSample: a one-row training set means every
// bootstrap is that single sample — the len(idx) < 2*MinLeaf bail on
// a one-element node.
func TestTrainerSingleSample(t *testing.T) {
	x := [][]float64{{1.5, -3}}
	y := []float64{42}
	cfg := Config{Seed: 13, NTrees: 5, Workers: 1}
	want := trainReference(cfg, x, y)
	got, err := trainRows(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got) {
		t.Fatal("single-sample forests differ")
	}
	if p := got.Predict([]float64{0, 0}); p != 42 {
		t.Errorf("single-sample prediction = %v, want 42", p)
	}
}

// TestTrainerAllEqualFeature: a feature whose values are all equal has
// one bin and no candidate boundary — the "cannot split between equal
// values" branch. With MTry=1 some splits draw only that feature and
// must fall back to a leaf, exactly as the reference does.
func TestTrainerAllEqualFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 120
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{3.75, float64(rng.Intn(4))} // feature 0 is constant
		y[i] = x[i][1] + rng.NormFloat64()*0.1
	}
	cfg := Config{Seed: 19, NTrees: 8, MTry: 1, Workers: 1}
	want := trainReference(cfg, x, y)
	got, err := trainRows(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got) {
		t.Fatal("all-equal-feature forests differ")
	}
	for _, tr := range got.unpack() {
		for _, nd := range tr.nodes {
			if nd.left != -1 && nd.feature == 0 {
				t.Fatal("tree split on a constant feature")
			}
		}
	}
}

// TestTrainerWideMatrix guards the live-feature set past 64 columns: a
// representation that packs it into one machine word would drop the
// high columns. The target hangs on columns 67 and 75 only, columns 64
// and 70 are constant, and the rest mix low-cardinality and continuous
// noise, so the trees must split on columns >= 64 and skip constant
// ones there, node for node as the reference does.
func TestTrainerWideMatrix(t *testing.T) {
	const nf = 80
	rng := rand.New(rand.NewSource(71))
	x := make([][]float64, 300)
	y := make([]float64, len(x))
	for i := range x {
		row := make([]float64, nf)
		for j := range row {
			switch {
			case j == 64 || j == 70:
				row[j] = 1.5
			case j%3 == 0:
				row[j] = float64(rng.Intn(3))
			default:
				row[j] = rng.NormFloat64()
			}
		}
		x[i] = row
		y[i] = 4*row[67] - 3*row[75] + rng.NormFloat64()*0.1
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{Seed: 73, NTrees: 6, Workers: workers}
		want := trainReference(cfg, x, y)
		got, err := trainRows(cfg, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !forestsIdentical(want, got) {
			t.Fatalf("Workers=%d: %d-column forest differs from reference builder", workers, nf)
		}
		high := false
		for _, tr := range got.unpack() {
			for _, nd := range tr.nodes {
				if nd.left != -1 && (nd.feature == 64 || nd.feature == 70) {
					t.Fatalf("Workers=%d: tree split on constant column %d", workers, nd.feature)
				}
				high = high || (nd.left != -1 && nd.feature >= 64)
			}
		}
		if !high {
			t.Fatalf("Workers=%d: no split on a column >= 64; the test no longer reaches them", workers)
		}
	}
}

// TestTrainerWorkerCounts pins the Workers-independence contract on
// the compiled path itself (the fuzz target additionally compares
// against the reference).
func TestTrainerWorkerCounts(t *testing.T) {
	x, y := trainerData(23, 300, 5)
	cfg := Config{Seed: 29, NTrees: 12, MTry: 3}
	cfg.Workers = 1
	want, err := trainRows(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7, 16} {
		c := cfg
		c.Workers = w
		got, err := trainRows(c, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !forestsIdentical(want, got) {
			t.Fatalf("Workers=%d forest differs from Workers=1", w)
		}
	}
}

// TestTrainSharedRace exercises the shared read-only binset from many
// trainer goroutines at once — concurrent TrainMatrix calls on the same
// rows, each with a multi-worker pool. Run under -race in CI, it
// proves the trainer's sharing discipline: binset immutable, all
// scratch goroutine-local.
func TestTrainSharedRace(t *testing.T) {
	x, y := trainerData(31, 200, 4)
	var wg sync.WaitGroup
	forests := make([]*Forest, 6)
	for g := range forests {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := trainRows(Config{Seed: 37, NTrees: 10, Workers: 4}, x, y)
			if err != nil {
				t.Error(err)
				return
			}
			forests[g] = f
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(forests); g++ {
		if !forestsIdentical(forests[0], forests[g]) {
			t.Fatalf("concurrent TrainMatrix call %d produced a different forest", g)
		}
	}
}

// TestTrainFlatValidation: a flat row-major buffer laid into a
// featspace.Matrix row by row is rejected before it can train a
// forest — a ragged buffer at assembly, the rest by TrainMatrix.
func TestTrainFlatValidation(t *testing.T) {
	flatMatrix := func(x []float64, cols int) *featspace.Matrix {
		var m featspace.Matrix
		if cols > 0 {
			m.Reset(cols)
			for i := 0; i < len(x); i += cols {
				m.AppendRow(x[i:min(i+cols, len(x))]...)
			}
		}
		return &m
	}
	for _, tc := range []struct {
		name string
		x    []float64
		cols int
		y    []float64
		want string
	}{
		{"zero cols", []float64{1, 2}, 0, []float64{1}, "forest: samples have no features"},
		{"empty", nil, 2, nil, "forest: no training samples"},
		{"target mismatch", []float64{1, 2, 3, 4}, 2, []float64{1, 2, 3}, "forest: 2 samples but 3 targets"},
	} {
		if _, err := TrainMatrix(Config{}, flatMatrix(tc.x, tc.cols), tc.y); err == nil || err.Error() != tc.want {
			t.Errorf("%s: TrainMatrix error = %v, want %q", tc.name, err, tc.want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ragged flat: matrix assembly accepted a short last row")
			}
		}()
		flatMatrix([]float64{1, 2, 3}, 2)
	}()
}

// TestBinsetRoundTrip: bins are value ranks, edges recover the value.
func TestBinsetRoundTrip(t *testing.T) {
	x, _ := trainerData(47, 90, 3)
	bs := newBinset(len(x), 3, rowsMatrix(x).Col)
	for f := 0; f < 3; f++ {
		edges := bs.edges[f]
		for j := 1; j < len(edges); j++ {
			if edges[j] <= edges[j-1] {
				t.Fatalf("feature %d edges not strictly increasing: %v", f, edges)
			}
		}
		for i, row := range x {
			if got := edges[bs.bins[f*bs.n+i]]; got != row[f] {
				t.Fatalf("feature %d sample %d: edges[bin] = %v, value = %v", f, i, got, row[f])
			}
		}
	}
}

// TestTrainerSteadyStateZeroAlloc is the runtime gate behind the
// //acclaim:zeroalloc annotations in trainer.go: once scratch is
// warmed (ensure + one tree grown), order building, live-feature
// marking, split scanning, and partitioning allocate nothing — and
// neither does re-sizing scratch for the same bootstrap. A whole tree
// grown into an arena with room for it allocates nothing either: no
// per-tree node copy and no per-tree generator.
func TestTrainerSteadyStateZeroAlloc(t *testing.T) {
	x, y := trainerData(53, 220, 4)
	cfg := Config{Seed: 59, NTrees: 1, Workers: 1}.withDefaults(4)
	bs := newBinset(len(x), 4, rowsMatrix(x).Col)
	tr := newTrainer(bs, y, cfg)
	boot := make([]int, len(x))
	for i := range boot {
		boot[i] = i
	}
	arena := new(packed)
	tr.fitTree(61, boot, arena) // warm every scratch buffer and size the arena

	seed := int64(61)
	if n := testing.AllocsPerRun(20, func() {
		arena.meta, arena.val = arena.meta[:0], arena.val[:0]
		seed++
		tr.fitTree(seed%2+61, boot, arena) // two trees, so reseeding is exercised
	}); n != 0 {
		t.Errorf("fitTree allocates %v times per tree into a sized arena, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() { tr.ensure(len(boot)) }); n != 0 {
		t.Errorf("ensure allocates %v times per run on warm scratch, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.buildOrders() }); n != 0 {
		t.Errorf("buildOrders allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tr.markLive(0, tr.nb, 0)
		tr.markLive(0, tr.nb/2, 1)
	}); n != 0 {
		t.Errorf("markLive allocates %v times per run, want 0", n)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		_, th, _, _ := t2ScanAll(tr)
		sink += th
	}); n != 0 {
		t.Errorf("scanFeature allocates %v times per run, want 0", n)
	}
	_ = sink
	cut := int32(2)
	if n := testing.AllocsPerRun(100, func() {
		tr.stablePartition(tr.idx, 0, cut)
	}); n != 0 {
		t.Errorf("stablePartition allocates %v times per run, want 0", n)
	}
}

// t2ScanAll drives scanFeature over every feature of the warm trainer's
// root node (helper for the allocation gate; the return values keep
// the call from being optimized away).
func t2ScanAll(tr *trainer) (feat int, thresh float64, cut int32, ok bool) {
	for f := 0; f < tr.bs.nf; f++ {
		if _, th, c, o := tr.scanFeature(f, 0, tr.nb, 1e18); o {
			feat, thresh, cut, ok = f, th, c, o
		}
	}
	return feat, thresh, cut, ok
}

// TestMaxTreeNodesBound checks the bound train reserves arena room
// by: no tree exceeds Config.maxTreeNodes for its bootstrap size,
// whether MinLeaf, MaxDepth or the sample count is what binds.
func TestMaxTreeNodesBound(t *testing.T) {
	x, y := trainerData(83, 150, 3)
	for _, cfg := range []Config{
		{Seed: 1, NTrees: 5, Workers: 1},
		{Seed: 2, NTrees: 5, MinLeaf: 3, Workers: 2},
		{Seed: 3, NTrees: 5, MaxDepth: 3, Workers: 1},
		{Seed: 4, NTrees: 5, MinLeaf: 200, Workers: 1},
	} {
		f, err := trainRows(cfg, x, y)
		if err != nil {
			t.Fatal(err)
		}
		bound := f.cfg.maxTreeNodes(len(x))
		for ti, tr := range f.unpack() {
			if len(tr.nodes) > bound {
				t.Fatalf("cfg %+v tree %d has %d nodes, bound %d", cfg, ti, len(tr.nodes), bound)
			}
		}
	}
}
