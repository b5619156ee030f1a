package dataset

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
	"acclaim/internal/obs"
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

// TestCollectStopsAtFirstFailure holds Collect's failure path: two
// points whose PPN exceeds the machine's cores per node pass
// Point.Valid but fail in netmodel. The sweep must stop handing out
// specs once one fails, so the runner's benchmark.runs_total counter,
// which counts successful measurements, stops short of every spec that
// succeeds, and return the error of the failing spec with the lowest
// index at every worker count.
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
	total, failing := 0, 0
	for _, c := range coll.Collectives() {
		total += len(pts) * coll.NumAlgorithms(c)
		failing += 2 * coll.NumAlgorithms(c) // every algorithm fails at both points
	}
	var want string
	for _, workers := range []int{1, 2, 4} {
		met := benchmark.NewMetrics(obs.NewRegistry())
		r.Metrics = met
		_, err := Collect(r, pts, CollectOptions{Workers: workers})
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
		if seen := met.Runs.Load(); seen >= uint64(total-failing) {
			t.Errorf("Workers=%d: %d of the %d specs that succeed were measured; the sweep went on after a failure",
				workers, seen, total-failing)
		}
	}
}

// TestReplayLiveFallback holds Replay's live fallback. A table hit is
// served from the table even where the table disagrees with the live
// simulator; a miss is Live.Run bit for bit, through Measure and
// MeasureWave alike; MeasureWave charges what a strict replay charges
// over a table that already holds the simulated values; the table is
// never written; and MeasureWave's engine leaves no goroutine behind.
// With Live nil a miss is ErrMissing.
func TestReplayLiveFallback(t *testing.T) {
	live, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), cluster.TopologyTwoPairs(), benchmark.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := collectTiny(t)
	hit := benchmark.Spec{Coll: coll.Bcast, Alg: "binomial", Point: featspace.Point{Nodes: 4, PPN: 2, MsgBytes: 64}}
	doctored := Entry{MeanTime: 1.5, WallTime: 7}
	d.Put(Key{Coll: hit.Coll, Alg: hit.Alg, Point: hit.Point}, doctored)
	miss := func(c coll.Collective, alg string, nodes, msg int) benchmark.Spec {
		return benchmark.Spec{Coll: c, Alg: alg, Point: featspace.Point{Nodes: nodes, PPN: 2, MsgBytes: msg}}
	}
	// Four nodes, so the 4-node benchmarks run in waves of one.
	alloc, err := cluster.Contiguous(cluster.Bebop(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		specs []benchmark.Spec
	}{
		{"hit", []benchmark.Spec{hit}},
		{"miss", []benchmark.Spec{miss(coll.Reduce, "binomial", 4, 1000)}},
		{"mixed batch", []benchmark.Spec{
			miss(coll.Allreduce, "recursive_doubling", 2, 3000), hit, miss(coll.Bcast, "binomial", 4, 100),
			miss(coll.Allreduce, "recursive_doubling", 2, 3000), miss(coll.Reduce, "binomial", 2, 5000),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[benchmark.Spec]benchmark.Measurement{hit: {Spec: hit, MeanTime: doctored.MeanTime, WallTime: doctored.WallTime}}
			full := New() // d plus every miss, as a strict replay's table
			maps.Copy(full.Entries, d.Entries)
			for _, s := range tc.specs {
				if s == hit {
					continue
				}
				m, err := live.Run(s)
				if err != nil {
					t.Fatal(err)
				}
				want[s] = m
				full.Put(Key{Coll: s.Coll, Alg: s.Alg, Point: s.Point}, Entry{MeanTime: m.MeanTime, WallTime: m.WallTime})
			}
			if lm, _ := live.Run(hit); lm.MeanTime == doctored.MeanTime {
				t.Fatal("doctored entry equals the live simulation")
			}
			rp := &Replay{DS: d, Alloc: alloc, Live: live}
			n := d.Len()
			for _, s := range tc.specs {
				if m, err := rp.Measure(s); err != nil || m != want[s] {
					t.Errorf("Measure(%v) = %+v, %v, want %+v", s, m, err, want[s])
				}
			}
			base := runtime.NumGoroutine()
			got, total, err := rp.MeasureWave(tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after MeasureWave, %d before", runtime.NumGoroutine(), base)
				}
				runtime.Gosched()
			}
			for _, m := range got {
				if m != want[m.Spec] {
					t.Errorf("MeasureWave: %+v, want %+v", m, want[m.Spec])
				}
			}
			strict, strictTotal, err := (&Replay{DS: full, Alloc: alloc}).MeasureWave(tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, strict) || math.Float64bits(total) != math.Float64bits(strictTotal) {
				t.Errorf("MeasureWave = %+v, total %v; strict replay = %+v, total %v", got, total, strict, strictTotal)
			}
			if d.Len() != n {
				t.Errorf("table grew from %d to %d entries", n, d.Len())
			}
			if tc.name == "hit" {
				return
			}
			noLive := &Replay{DS: d, Alloc: alloc}
			if _, err := noLive.Measure(tc.specs[0]); !errors.Is(err, ErrMissing) {
				t.Errorf("Measure without Live = %v, want ErrMissing", err)
			}
			if _, _, err := noLive.MeasureWave(tc.specs); !errors.Is(err, ErrMissing) {
				t.Errorf("MeasureWave without Live = %v, want ErrMissing", err)
			}
		})
	}
}
