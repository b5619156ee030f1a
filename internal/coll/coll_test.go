package coll

import (
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// modelFor builds a model with the given node count and ppn on a
// 16-nodes-per-rack machine with a calm environment.
func modelFor(t testing.TB, nodes, ppn int) *netmodel.Model {
	t.Helper()
	mach := cluster.Machine{Nodes: 1024, NodesPerRack: 16, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netmodel.New(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAllAlgorithmsCorrect is the core correctness matrix: every
// algorithm of every collective, across P2 and non-P2 rank counts and
// P2 and non-P2 message sizes, moving real data.
func TestAllAlgorithmsCorrect(t *testing.T) {
	rankCounts := []int{2, 3, 4, 5, 7, 8, 12, 16}
	msgSizes := []int{1, 7, 8, 100, 1024}
	for _, c := range Collectives() {
		for _, alg := range AlgorithmNames(c) {
			for _, n := range rankCounts {
				for _, msg := range msgSizes {
					model := modelFor(t, n, 1)
					_, err := Exec(model, c, alg, msg, Options{WithData: true, Op: simmpi.OpSum})
					if err != nil {
						t.Errorf("%v/%s n=%d msg=%d: %v", c, alg, n, msg, err)
					}
				}
			}
		}
	}
}

// TestMultiPPNCorrect exercises multi-rank-per-node layouts.
func TestMultiPPNCorrect(t *testing.T) {
	for _, c := range Collectives() {
		for _, alg := range AlgorithmNames(c) {
			model := modelFor(t, 3, 4) // 12 ranks, mixed intra-node/network paths
			if _, err := Exec(model, c, alg, 64, Options{WithData: true, Op: simmpi.OpMax}); err != nil {
				t.Errorf("%v/%s: %v", c, alg, err)
			}
		}
	}
}

// TestNonRootZero checks rooted collectives with a non-zero root.
func TestNonRootZero(t *testing.T) {
	for _, c := range []Collective{Bcast, Reduce, Gather, Scatter} {
		for _, alg := range AlgorithmNames(c) {
			for _, root := range []int{1, 5, 6} {
				model := modelFor(t, 7, 1)
				if _, err := Exec(model, c, alg, 96, Options{WithData: true, Op: simmpi.OpSum, Root: root}); err != nil {
					t.Errorf("%v/%s root=%d: %v", c, alg, root, err)
				}
			}
		}
	}
}

// TestAllOps checks reductions under every operator.
func TestAllOps(t *testing.T) {
	for _, op := range []simmpi.Op{simmpi.OpSum, simmpi.OpMax, simmpi.OpXor} {
		for _, c := range []Collective{Allreduce, Reduce, ReduceScatter} {
			for _, alg := range AlgorithmNames(c) {
				model := modelFor(t, 6, 1)
				if _, err := Exec(model, c, alg, 40, Options{WithData: true, Op: op}); err != nil {
					t.Errorf("%v/%s op=%v: %v", c, alg, op, err)
				}
			}
		}
	}
}

// TestTimingDeterministic: identical inputs must produce identical
// virtual times regardless of goroutine scheduling.
func TestTimingDeterministic(t *testing.T) {
	for _, c := range Collectives() {
		alg := AlgorithmNames(c)[0]
		model := modelFor(t, 8, 2)
		r1, err := Exec(model, c, alg, 4096, Options{Op: simmpi.OpSum})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			r2, err := Exec(model, c, alg, 4096, Options{Op: simmpi.OpSum})
			if err != nil {
				t.Fatal(err)
			}
			if r1.MaxClock != r2.MaxClock {
				t.Errorf("%v/%s: non-deterministic timing %v vs %v", c, alg, r1.MaxClock, r2.MaxClock)
			}
		}
	}
}

// TestTimingModeMatchesDataMode: the virtual clock must not depend on
// whether real bytes are moved.
func TestTimingModeMatchesDataMode(t *testing.T) {
	for _, c := range Collectives() {
		for _, alg := range AlgorithmNames(c) {
			model := modelFor(t, 6, 1)
			rt, err := Exec(model, c, alg, 1000, Options{Op: simmpi.OpSum})
			if err != nil {
				t.Fatal(err)
			}
			rd, err := Exec(model, c, alg, 1000, Options{WithData: true, Op: simmpi.OpSum})
			if err != nil {
				t.Fatal(err)
			}
			if rt.MaxClock != rd.MaxClock {
				t.Errorf("%v/%s: timing mode %v != data mode %v", c, alg, rt.MaxClock, rd.MaxClock)
			}
		}
	}
}

// TestBcastSmallMessageBinomialWins: for tiny messages, the binomial
// tree (log n latency terms) must beat scatter_ring_allgather (n-1
// latency terms) — the textbook small-message behaviour.
func TestBcastSmallMessageBinomialWins(t *testing.T) {
	model := modelFor(t, 16, 1)
	bin, err := Exec(model, Bcast, "binomial", 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Exec(model, Bcast, "scatter_ring_allgather", 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bin.MaxClock >= ring.MaxClock {
		t.Errorf("binomial %v not faster than scatter_ring %v for 8B", bin.MaxClock, ring.MaxClock)
	}
}

// TestBcastLargeMessageScatterWins: for large messages on a calm
// network, the bandwidth-optimal scatter-based algorithms must beat the
// binomial tree, which sends the full message log(n) times.
func TestBcastLargeMessageScatterWins(t *testing.T) {
	model := modelFor(t, 16, 1)
	const msg = 1 << 20
	bin, err := Exec(model, Bcast, "binomial", msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scatterRing, err := Exec(model, Bcast, "scatter_ring_allgather", msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scatterRing.MaxClock >= bin.MaxClock {
		t.Errorf("scatter_ring %v not faster than binomial %v for 1MB", scatterRing.MaxClock, bin.MaxClock)
	}
}

// TestReduceLatencyCrossover reproduces the paper's Section II-B
// argument: for large vectors, scatter_gather wins on a calm network,
// but under sufficiently high effective latency the binomial tree's
// fewer, larger messages win even at large sizes.
func TestReduceLatencyCrossover(t *testing.T) {
	mach := cluster.Machine{Nodes: 1024, NodesPerRack: 16, CoresPerNode: 64}
	alloc, _ := cluster.Contiguous(mach, 0, 32)
	const msg = 1 << 17
	timeFor := func(env netmodel.Env, alg string) float64 {
		model, err := netmodel.New(netmodel.DefaultParams(), env, alloc, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(model, Reduce, alg, msg, Options{Op: simmpi.OpSum})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxClock
	}
	calm := netmodel.Env{LatencyFactor: 1, BandwidthFactor: 1}
	congested := netmodel.Env{LatencyFactor: 40, BandwidthFactor: 1}
	if sg, bin := timeFor(calm, "scatter_gather"), timeFor(calm, "binomial"); sg >= bin {
		t.Errorf("calm network: scatter_gather %v should beat binomial %v at 128KB", sg, bin)
	}
	if sg, bin := timeFor(congested, "scatter_gather"), timeFor(congested, "binomial"); bin >= sg {
		t.Errorf("high latency: binomial %v should beat scatter_gather %v at 128KB", bin, sg)
	}
}

// TestAllgatherRDFavorsP2: recursive doubling must pay a visibly larger
// penalty than ring when moving from a P2 to an adjacent non-P2 rank
// count (the extra full-buffer fold transfers).
func TestAllgatherRDFavorsP2(t *testing.T) {
	const msg = 32768
	ratio := func(alg string) float64 {
		p2, err := Exec(modelFor(t, 16, 1), Allgather, alg, msg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nonP2, err := Exec(modelFor(t, 17, 1), Allgather, alg, msg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return nonP2.MaxClock / p2.MaxClock
	}
	if rd, ring := ratio("recursive_doubling"), ratio("ring"); rd <= ring {
		t.Errorf("recursive doubling non-P2 penalty %vx not above ring's %vx", rd, ring)
	}
}

// TestNonP2MessageDeviation: non-P2 message sizes must deviate from the
// P2 interpolation (the Section III-B effect the autotuner must learn).
func TestNonP2MessageDeviation(t *testing.T) {
	model := modelFor(t, 8, 1)
	timeAt := func(msg int) float64 {
		res, err := Exec(model, Bcast, "binomial", msg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxClock
	}
	t64, t128 := timeAt(1<<16), timeAt(1<<17)
	t96 := timeAt(3 << 15) // 96KB, halfway
	interp := (t64 + t128) / 2
	if t96 <= interp*1.05 {
		t.Errorf("non-P2 96KB bcast %v not measurably above interpolation %v", t96, interp)
	}
}

func TestExecValidation(t *testing.T) {
	model := modelFor(t, 4, 1)
	if _, err := Exec(model, Bcast, "binomial", 0, Options{}); err == nil {
		t.Error("zero message size should fail")
	}
	if _, err := Exec(model, Bcast, "nope", 8, Options{}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := Exec(model, Bcast, "binomial", 8, Options{Root: 99}); err == nil {
		t.Error("out-of-range root should fail")
	}
	if _, err := Exec(model, Allgather, "binomial", 8, Options{}); err == nil {
		t.Error("algorithm of wrong collective should fail")
	}
}

func TestRegistry(t *testing.T) {
	total := 0
	for _, c := range Collectives() {
		names := AlgorithmNames(c)
		if len(names) == 0 {
			t.Errorf("%v has no algorithms", c)
		}
		if NumAlgorithms(c) != len(names) {
			t.Errorf("%v NumAlgorithms mismatch", c)
		}
		total += len(names)
		for i, name := range names {
			idx, ok := AlgIndex(c, name)
			if !ok || idx != i {
				t.Errorf("AlgIndex(%v, %s) = %d, %v", c, name, idx, ok)
			}
		}
		if _, ok := AlgIndex(c, "missing"); ok {
			t.Errorf("AlgIndex(%v, missing) should be false", c)
		}
	}
	if total != 19 {
		t.Errorf("total algorithms = %d, want 19 (the paper's 10 plus the 9 scenario-diversity schedules)", total)
	}
}

func TestParseCollective(t *testing.T) {
	for _, c := range Collectives() {
		got, err := ParseCollective(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCollective(%s) = %v, %v", c, got, err)
		}
	}
	if _, err := ParseCollective("barrier"); err == nil {
		t.Error("unknown collective should fail to parse")
	}
}

func TestCeilSegments(t *testing.T) {
	s := ceilSegments(10, 4) // ss = 3: [0,3) [3,6) [6,9) [9,10)
	wantOff := []int{0, 3, 6, 9}
	wantLen := []int{3, 3, 3, 1}
	for i := range wantOff {
		if s.off[i] != wantOff[i] || s.len(i) != wantLen[i] {
			t.Errorf("seg %d = [%d,+%d), want [%d,+%d)", i, s.off[i], s.len(i), wantOff[i], wantLen[i])
		}
	}
	// Degenerate: more ranks than bytes -> empty tail segments.
	s2 := ceilSegments(2, 4)
	if s2.len(0) != 1 || s2.len(1) != 1 || s2.len(2) != 0 || s2.len(3) != 0 {
		t.Errorf("ceilSegments(2,4) offsets = %v", s2.off)
	}
	// Total always covered exactly once.
	for _, tc := range []struct{ total, n int }{{1, 1}, {5, 3}, {100, 7}, {8, 8}, {3, 10}} {
		s := ceilSegments(tc.total, tc.n)
		sum := 0
		for i := 0; i < tc.n; i++ {
			if s.off[i] > tc.total {
				t.Errorf("offset beyond total for %+v", tc)
			}
			sum += s.len(i)
		}
		if sum != tc.total {
			t.Errorf("ceilSegments(%d,%d) covers %d bytes", tc.total, tc.n, sum)
		}
	}
}

func TestHeldBlocks(t *testing.T) {
	// pof2=4, rem=2: actives 0..3, extras 4 (of 0) and 5 (of 1); block i
	// is bytes [10i, 10i+10).
	segs := uniformSegments(6, 10)
	for _, tc := range []struct {
		a, dist          int
		lo, hi, xlo, xhi int
	}{
		{a: 2, dist: 2, lo: 20, hi: 40},                   // blocks 2,3; no extras
		{a: 0, dist: 2, lo: 0, hi: 20, xlo: 40, xhi: 60},  // blocks 0,1 and extras 4,5
		{a: 1, dist: 1, lo: 10, hi: 20, xlo: 50, xhi: 60}, // block 1 and extra 5
		{a: 3, dist: 4, lo: 0, hi: 40, xlo: 40, xhi: 60},  // dist = pof2 covers everything
	} {
		lo, hi, xlo, xhi := heldRanges(segs, tc.a, tc.dist, 4, 2)
		if lo != tc.lo || hi != tc.hi || xlo != tc.xlo || xhi != tc.xhi {
			t.Errorf("heldRanges(a=%d, dist=%d) = [%d,%d)+[%d,%d), want [%d,%d)+[%d,%d)",
				tc.a, tc.dist, lo, hi, xlo, xhi, tc.lo, tc.hi, tc.xlo, tc.xhi)
		}
	}
}

func TestFoldState(t *testing.T) {
	// n=6: pof2=4, rem=2. Ranks 0,2 fold into 1,3; ranks 4,5 stay.
	wantNew := []int{-1, 0, -1, 1, 2, 3}
	for r, want := range wantNew {
		st := foldFor(r, 6)
		if st.newRank != want {
			t.Errorf("foldFor(%d, 6).newRank = %d, want %d", r, st.newRank, want)
		}
	}
	st := foldFor(0, 6)
	for newR, wantOld := range []int{1, 3, 4, 5} {
		if got := st.oldRank(newR); got != wantOld {
			t.Errorf("oldRank(%d) = %d, want %d", newR, got, wantOld)
		}
	}
	// P2 world: identity mapping, nobody folds.
	for r := 0; r < 8; r++ {
		st := foldFor(r, 8)
		if st.newRank != r || st.rem != 0 {
			t.Errorf("foldFor(%d, 8) = %+v", r, st)
		}
	}
}

// TestMessageCountsScale sanity-checks algorithm message complexity:
// ring allgather sends exactly n*(n-1) messages; binomial bcast n-1.
func TestMessageCountsScale(t *testing.T) {
	model := modelFor(t, 8, 1)
	ring, err := Exec(model, Allgather, "ring", 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Sent != 8*7 {
		t.Errorf("ring allgather sent %d messages, want 56", ring.Sent)
	}
	bin, err := Exec(model, Bcast, "binomial", 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bin.Sent != 7 {
		t.Errorf("binomial bcast sent %d messages, want 7", bin.Sent)
	}
}

// modelWithLatency builds a model with a specific job latency factor.
func modelWithLatency(t testing.TB, nodes, ppn int, factor float64) *netmodel.Model {
	t.Helper()
	mach := cluster.Machine{Nodes: 1024, NodesPerRack: 16, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	env := netmodel.Env{LatencyFactor: factor, BandwidthFactor: 1, NoiseSigma: 0}
	m, err := netmodel.New(netmodel.DefaultParams(), env, alloc, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
