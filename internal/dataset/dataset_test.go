package dataset

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
)

func tinySpace() featspace.Space {
	return featspace.Space{Nodes: []int{2, 4}, PPNs: []int{1, 2}, Msgs: []int{8, 64, 1024}}
}

func collectTiny(t testing.TB) *Dataset {
	t.Helper()
	alloc := cluster.TopologyTwoPairs()
	r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, benchmark.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Collect(r, tinySpace().Points(), CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCollectCoversSpace(t *testing.T) {
	d := collectTiny(t)
	want := 0
	for _, c := range coll.Collectives() {
		want += coll.NumAlgorithms(c) * tinySpace().Size()
	}
	if d.Len() != want {
		t.Errorf("collected %d entries, want %d", d.Len(), want)
	}
	for _, c := range coll.Collectives() {
		pts := d.Points(c)
		if len(pts) != tinySpace().Size() {
			t.Errorf("%v has %d points, want %d", c, len(pts), tinySpace().Size())
		}
	}
}

func TestCollectSkipsOversize(t *testing.T) {
	alloc, _ := cluster.Contiguous(cluster.Bebop(), 0, 2)
	r, _ := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, benchmark.Config{})
	pts := []featspace.Point{
		{Nodes: 2, PPN: 1, MsgBytes: 8},
		{Nodes: 64, PPN: 1, MsgBytes: 8}, // exceeds the 2-node allocation
		{Nodes: 1, PPN: 1, MsgBytes: 8},  // single rank: invalid
	}
	d, err := Collect(r, pts, CollectOptions{Collectives: []coll.Collective{coll.Bcast}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != coll.NumAlgorithms(coll.Bcast) {
		t.Errorf("entries = %d, want %d (only the feasible point)", d.Len(), coll.NumAlgorithms(coll.Bcast))
	}
}

func TestCollectDeterministic(t *testing.T) {
	d1 := collectTiny(t)
	d2 := collectTiny(t)
	if d1.Len() != d2.Len() {
		t.Fatal("lengths differ")
	}
	for k, e1 := range d1.Entries {
		e2, ok := d2.Lookup(k)
		if !ok || e1 != e2 {
			t.Fatalf("entry %v differs: %v vs %v", k, e1, e2)
		}
	}
}

func TestBestAndTimeOf(t *testing.T) {
	d := collectTiny(t)
	p := featspace.Point{Nodes: 4, PPN: 2, MsgBytes: 1024}
	alg, best, ok := d.Best(coll.Bcast, p)
	if !ok {
		t.Fatal("Best found nothing")
	}
	for _, a := range coll.AlgorithmNames(coll.Bcast) {
		tm, ok := d.TimeOf(coll.Bcast, a, p)
		if !ok {
			t.Fatalf("missing %s", a)
		}
		if tm < best {
			t.Errorf("Best returned %s (%v) but %s is faster (%v)", alg, best, a, tm)
		}
	}
	if _, _, ok := d.Best(coll.Bcast, featspace.Point{Nodes: 999, PPN: 1, MsgBytes: 8}); ok {
		t.Error("Best on missing point should report !ok")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := collectTiny(t)
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("loaded %d entries, want %d", d2.Len(), d.Len())
	}
	for k, e := range d.Entries {
		if e2, ok := d2.Lookup(k); !ok || e2 != e {
			t.Fatalf("entry %v lost in round trip", k)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.gob")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestMerge(t *testing.T) {
	a := New()
	b := New()
	k1 := Key{Coll: coll.Bcast, Alg: "binomial", Point: featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 8}}
	k2 := Key{Coll: coll.Bcast, Alg: "binomial", Point: featspace.Point{Nodes: 4, PPN: 1, MsgBytes: 8}}
	a.Put(k1, Entry{MeanTime: 1})
	b.Put(k1, Entry{MeanTime: 2})
	b.Put(k2, Entry{MeanTime: 3})
	a.Merge(b)
	if e, _ := a.Lookup(k1); e.MeanTime != 2 {
		t.Error("Merge did not overwrite")
	}
	if a.Len() != 2 {
		t.Errorf("merged length = %d", a.Len())
	}
}

func TestReplayMeasure(t *testing.T) {
	d := collectTiny(t)
	rp := &Replay{DS: d, Alloc: cluster.TopologyTwoPairs()}
	spec := benchmark.Spec{Coll: coll.Reduce, Alg: "binomial",
		Point: featspace.Point{Nodes: 2, PPN: 1, MsgBytes: 64}}
	m, err := rp.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanTime <= 0 || m.WallTime <= 0 {
		t.Errorf("replayed measurement %+v", m)
	}
	if _, err := rp.Measure(benchmark.Spec{Coll: coll.Reduce, Alg: "binomial",
		Point: featspace.Point{Nodes: 999, PPN: 1, MsgBytes: 64}}); err == nil {
		t.Error("missing configuration should error")
	}
	if rp.MaxNodes() != 64 {
		t.Errorf("MaxNodes = %d", rp.MaxNodes())
	}
}

func TestReplayWaveFasterOnParallelTopology(t *testing.T) {
	d := collectTiny(t)
	specs := make([]benchmark.Spec, 6)
	for i := range specs {
		specs[i] = benchmark.Spec{Coll: coll.Bcast, Alg: "binomial",
			Point: featspace.Point{Nodes: 4, PPN: 1, MsgBytes: 1024}}
	}
	serialTopo := &Replay{DS: d, Alloc: cluster.TopologySingleRack()}
	parallelTopo := &Replay{DS: d, Alloc: cluster.TopologyMaxParallel()}
	_, tSerial, err := serialTopo.MeasureWave(specs)
	if err != nil {
		t.Fatal(err)
	}
	ms, tParallel, err := parallelTopo.MeasureWave(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(specs) {
		t.Fatalf("wave measurements = %d", len(ms))
	}
	if tParallel >= tSerial {
		t.Errorf("max-parallel replay %v not faster than single-rack %v", tParallel, tSerial)
	}
}

func TestNonP2PointGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	space := featspace.P2Grid(64, 4, 8, 4096)
	nodesSet := NonP2NodesPoints(rng, space)
	if len(nodesSet) == 0 {
		t.Fatal("empty non-P2 nodes set")
	}
	for _, p := range nodesSet {
		if featspace.IsP2(p.Nodes) {
			t.Errorf("point %v has P2 node count", p)
		}
		if !featspace.IsP2(p.MsgBytes) {
			t.Errorf("point %v should keep P2 message size", p)
		}
	}
	msgSet := NonP2MsgPoints(rng, space)
	if len(msgSet) == 0 {
		t.Fatal("empty non-P2 message set")
	}
	for _, p := range msgSet {
		if featspace.IsP2(p.MsgBytes) {
			t.Errorf("point %v has P2 message size", p)
		}
		if !featspace.IsP2(p.Nodes) {
			t.Errorf("point %v should keep P2 node count", p)
		}
	}
}

func TestCollectProgress(t *testing.T) {
	alloc := cluster.TopologyTwoPairs()
	r, _ := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, benchmark.Config{})
	var calls int
	var last int
	pts := []featspace.Point{{Nodes: 2, PPN: 1, MsgBytes: 8}, {Nodes: 2, PPN: 1, MsgBytes: 16}}
	_, err := Collect(r, pts, CollectOptions{
		Collectives: []coll.Collective{coll.Bcast},
		Workers:     1,
		Progress:    func(done, total int) { calls++; last = total },
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := coll.NumAlgorithms(coll.Bcast) * 2
	if calls != wantTotal || last != wantTotal {
		t.Errorf("progress calls=%d last total=%d, want %d", calls, last, wantTotal)
	}
}

// TestCollectStopsAtFirstFailure holds Collect's failure path: two
// points whose PPN exceeds the machine's cores per node pass
// Point.Valid but fail in netmodel. The sweep must stop handing out
// specs once one fails, so Progress sees fewer than all of them, and
// return the error of the failing spec with the lowest index at every
// worker count.
func TestCollectStopsAtFirstFailure(t *testing.T) {
	alloc := cluster.TopologyTwoPairs()
	r, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, benchmark.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cores := alloc.Machine.CoresPerNode
	var pts []featspace.Point
	for i := 0; i < 12; i++ {
		pts = append(pts, featspace.Point{Nodes: 2 + i%3, PPN: 1 + i%2, MsgBytes: 64 << i})
	}
	pts[3].PPN = cores + 1
	pts[7].PPN = cores + 2
	failing := 0 // every (collective, algorithm) fails at both points
	for _, c := range coll.Collectives() {
		failing += 2 * coll.NumAlgorithms(c)
	}
	var want string
	for _, workers := range []int{1, 2, 4} {
		total, seen := 0, 0
		_, err := Collect(r, pts, CollectOptions{
			Workers:  workers,
			Progress: func(done, n int) { seen, total = max(seen, done), n },
		})
		if err == nil {
			t.Fatalf("Workers=%d: no error for ppn %d > %d cores", workers, cores+1, cores)
		}
		if want == "" {
			want = err.Error()
			if !strings.Contains(want, fmt.Sprint(pts[3])) {
				t.Errorf("Workers=%d: error %q does not name the first failing point %v", workers, want, pts[3])
			}
		} else if err.Error() != want {
			t.Errorf("Workers=%d: error %q, Workers=1 returned %q", workers, err, want)
		}
		if total == 0 || seen >= total-failing {
			t.Errorf("Workers=%d: progress reached %d of the %d specs that succeed; the sweep went on after a failure",
				workers, seen, total-failing)
		}
	}
}
