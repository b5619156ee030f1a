package coll

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"acclaim/internal/simmpi"
)

// The property suite below is table-driven over the registry: every
// property draws its (collective, algorithm) cell from Collectives()
// and AlgorithmNames(), so a newly registered collective or schedule is
// covered automatically with zero new test code.

var propOps = []simmpi.Op{simmpi.OpSum, simmpi.OpMax, simmpi.OpXor}

// randomCell draws one (collective, algorithm) pair from the registry.
func randomCell(rng *rand.Rand) (Collective, string) {
	cs := Collectives()
	c := cs[rng.Intn(len(cs))]
	algs := AlgorithmNames(c)
	return c, algs[rng.Intn(len(algs))]
}

// outputRanks returns the ranks whose output buffer is meaningful: the
// root for the single-receiver collectives, everyone otherwise.
func outputRanks(c Collective, root, n int) []int {
	if c == Reduce || c == Gather {
		return []int{root}
	}
	all := make([]int, n)
	for r := range all {
		all[r] = r
	}
	return all
}

// TestRandomConfigurationsProperty fuzzes every registered algorithm
// over random rank counts, ppn values, message sizes, roots, and
// operators: the collective postcondition must hold and the virtual
// time must be positive and finite.
func TestRandomConfigurationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, alg := randomCell(rng)
		nodes := 2 + rng.Intn(15)
		ppn := 1 + rng.Intn(3)
		msg := 1 + rng.Intn(2000)
		opts := Options{
			WithData: true,
			Op:       propOps[rng.Intn(len(propOps))],
		}
		model := modelFor(t, nodes, ppn)
		if rng.Intn(2) == 0 && Rooted(c) {
			opts.Root = rng.Intn(nodes * ppn)
		}
		res, err := Exec(model, c, alg, msg, opts)
		if err != nil {
			t.Logf("seed %d: %v/%s nodes=%d ppn=%d msg=%d root=%d: %v",
				seed, c, alg, nodes, ppn, msg, opts.Root, err)
			return false
		}
		return res.MaxClock > 0 && res.Sent > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestTimeMonotoneInLatencyProperty: for any algorithm and point,
// raising the job's latency factor must never make the collective
// faster.
func TestTimeMonotoneInLatencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, alg := randomCell(rng)
		nodes := 2 + rng.Intn(10)
		msg := 8 << rng.Intn(12)

		timeAt := func(factor float64) float64 {
			model := modelWithLatency(t, nodes, 2, factor)
			res, err := Exec(model, c, alg, msg, Options{Op: simmpi.OpSum})
			if err != nil {
				t.Fatal(err)
			}
			return res.MaxClock
		}
		return timeAt(1.0) <= timeAt(1.5) && timeAt(1.5) <= timeAt(2.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTimeMonotoneInSizeProperty: larger messages never finish faster
// for the same algorithm on an all-power-of-two configuration (with
// non-P2 rank counts or sizes, internal chunking crosses non-P2
// penalty cliffs, so global monotonicity intentionally does not hold).
func TestTimeMonotoneInSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, alg := randomCell(rng)
		nodes := 2 << rng.Intn(4) // P2 so chunk sizes stay P2 at every level
		model := modelFor(t, nodes, 2)
		msg := 8 << rng.Intn(10)
		t1, err := Exec(model, c, alg, msg, Options{Op: simmpi.OpSum})
		if err != nil {
			t.Fatal(err)
		}
		t2, err := Exec(model, c, alg, msg*4, Options{Op: simmpi.OpSum})
		if err != nil {
			t.Fatal(err)
		}
		return t1.MaxClock <= t2.MaxClock
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCrossScheduleIdenticalProperty is the differential property: all
// registered schedules of one collective must produce byte-identical
// outputs at every meaningful rank for the same inputs — independent
// algorithms agreeing is far stronger evidence than each one passing
// its own postcondition.
func TestCrossScheduleIdenticalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := Collectives()
		c := cs[rng.Intn(len(cs))]
		nodes := 2 + rng.Intn(11)
		ppn := 1 + rng.Intn(2)
		msg := 1 + rng.Intn(600)
		opts := Options{WithData: true, Op: propOps[rng.Intn(len(propOps))]}
		if Rooted(c) {
			opts.Root = rng.Intn(nodes * ppn)
		}
		model := modelFor(t, nodes, ppn)
		algs := AlgorithmNames(c)
		ref, _, err := execOutputs(model, c, algs[0], msg, opts)
		if err != nil {
			t.Logf("seed %d: %v/%s: %v", seed, c, algs[0], err)
			return false
		}
		for _, alg := range algs[1:] {
			outs, _, err := execOutputs(model, c, alg, msg, opts)
			if err != nil {
				t.Logf("seed %d: %v/%s: %v", seed, c, alg, err)
				return false
			}
			for _, r := range outputRanks(c, opts.Root, nodes*ppn) {
				if !bytes.Equal(ref[r].Data, outs[r].Data) {
					t.Logf("seed %d: %v rank %d: %s and %s disagree", seed, c, r, algs[0], alg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRootInvarianceProperty: for the rooted collectives whose result
// does not depend on which rank is root (reduce, gather), moving the
// root must leave the root's output bytes unchanged; for the rooted
// collectives whose payload is the root's own data (bcast, scatter),
// the postcondition must hold at every sampled root.
func TestRootInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rooted []Collective
		for _, c := range Collectives() {
			if Rooted(c) {
				rooted = append(rooted, c)
			}
		}
		c := rooted[rng.Intn(len(rooted))]
		algs := AlgorithmNames(c)
		alg := algs[rng.Intn(len(algs))]
		nodes := 2 + rng.Intn(9)
		ppn := 1 + rng.Intn(2)
		msg := 1 + rng.Intn(400)
		op := propOps[rng.Intn(len(propOps))]
		model := modelFor(t, nodes, ppn)
		roots := []int{0, rng.Intn(nodes * ppn), rng.Intn(nodes * ppn)}
		var ref []byte
		for _, root := range roots {
			outs, _, err := execOutputs(model, c, alg, msg, Options{WithData: true, Op: op, Root: root})
			if err != nil {
				t.Logf("seed %d: %v/%s root=%d: %v", seed, c, alg, root, err)
				return false
			}
			if c != Reduce && c != Gather {
				continue // postcondition verified inside execOutputs
			}
			if ref == nil {
				ref = append([]byte(nil), outs[root].Data...)
			} else if !bytes.Equal(ref, outs[root].Data) {
				t.Logf("seed %d: %v/%s: result depends on root %d", seed, c, alg, root)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestReduceScatterIdentityProperty pins the self-consistency identity
// reduce_scatter ≡ reduce + scatterv: every reduce_scatter schedule's
// per-rank segment must equal the corresponding ceilSegments slice of
// an independently computed full reduction.
func TestReduceScatterIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		algs := AlgorithmNames(ReduceScatter)
		alg := algs[rng.Intn(len(algs))]
		nodes := 2 + rng.Intn(11)
		ppn := 1 + rng.Intn(2)
		msg := 1 + rng.Intn(800)
		op := propOps[rng.Intn(len(propOps))]
		model := modelFor(t, nodes, ppn)
		n := nodes * ppn
		rsOuts, _, err := execOutputs(model, ReduceScatter, alg, msg, Options{WithData: true, Op: op})
		if err != nil {
			t.Logf("seed %d: reduce_scatter/%s: %v", seed, alg, err)
			return false
		}
		redOuts, _, err := execOutputs(model, Reduce, "binomial", msg, Options{WithData: true, Op: op})
		if err != nil {
			t.Logf("seed %d: reduce/binomial: %v", seed, err)
			return false
		}
		segs := ceilSegments(msg, n)
		full := redOuts[0].Data
		for r := 0; r < n; r++ {
			want := full[segs.off[r]:segs.off[r+1]]
			if !bytes.Equal(rsOuts[r].Data, want) {
				t.Logf("seed %d: %s rank %d != reduce+scatterv segment", seed, alg, r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOpAlgebraProperty pins the operator algebra every reduction
// schedule relies on: all supported operators must be commutative and
// associative bytewise, or combining order (which differs across
// schedules and rank counts) would change results.
func TestOpAlgebraProperty(t *testing.T) {
	f := func(a, b, c []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
		a, b, c = a[:n], b[:n], c[:n]
		for _, op := range propOps {
			// Commutativity: a∘b == b∘a.
			ab := simmpi.BytesBuf(append([]byte(nil), a...))
			op.Combine(ab, simmpi.BytesBuf(b))
			ba := simmpi.BytesBuf(append([]byte(nil), b...))
			op.Combine(ba, simmpi.BytesBuf(a))
			if !bytes.Equal(ab.Data, ba.Data) {
				return false
			}
			// Associativity: (a∘b)∘c == a∘(b∘c).
			abc := simmpi.BytesBuf(append([]byte(nil), ab.Data...))
			op.Combine(abc, simmpi.BytesBuf(c))
			bc := simmpi.BytesBuf(append([]byte(nil), b...))
			op.Combine(bc, simmpi.BytesBuf(c))
			abc2 := simmpi.BytesBuf(append([]byte(nil), a...))
			op.Combine(abc2, bc)
			if !bytes.Equal(abc.Data, abc2.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
