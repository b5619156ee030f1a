// Package dataset manages precollected benchmark data. The paper's
// simulated experiments (its Figure 1(a) methodology) replay an
// exhaustively benchmarked dataset instead of touching the machine;
// this package collects such datasets from the simulator, persists
// them, answers lookups, and exposes a Replay backend that serves
// autotuners "benchmark results" from the table while charging the
// recorded machine time — including topology-aware parallel replay for
// the Figure 13 study.
package dataset

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/sched"
	"acclaim/internal/simmpi"
)

// Key identifies one benchmarked configuration.
type Key struct {
	Coll  coll.Collective
	Alg   string
	Point featspace.Point
}

// Entry is the stored measurement for a key.
type Entry struct {
	MeanTime float64 // mean collective time (us)
	WallTime float64 // machine time one benchmark run occupied (us)
}

// Dataset is a table of benchmark results.
type Dataset struct {
	Entries map[Key]Entry
}

// New returns an empty dataset.
func New() *Dataset { return &Dataset{Entries: make(map[Key]Entry)} }

// Len returns the number of entries.
func (d *Dataset) Len() int { return len(d.Entries) }

// Lookup returns the entry for a key.
func (d *Dataset) Lookup(k Key) (Entry, bool) {
	e, ok := d.Entries[k]
	return e, ok
}

// Put stores an entry.
func (d *Dataset) Put(k Key, e Entry) { d.Entries[k] = e }

// Merge copies every entry of other into d, overwriting duplicates.
func (d *Dataset) Merge(other *Dataset) {
	for k, e := range other.Entries {
		d.Entries[k] = e
	}
}

// Points returns the distinct feature points present for a collective,
// in deterministic order.
func (d *Dataset) Points(c coll.Collective) []featspace.Point {
	seen := make(map[featspace.Point]bool)
	for k := range d.Entries {
		if k.Coll == c {
			seen[k.Point] = true
		}
	}
	pts := make([]featspace.Point, 0, len(seen))
	for p := range seen {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		if a.PPN != b.PPN {
			return a.PPN < b.PPN
		}
		return a.MsgBytes < b.MsgBytes
	})
	return pts
}

// Best returns the fastest algorithm and its time for a collective at a
// point. ok is false if the point has no entries.
func (d *Dataset) Best(c coll.Collective, p featspace.Point) (alg string, mean float64, ok bool) {
	for _, a := range coll.AlgorithmNames(c) {
		if e, found := d.Lookup(Key{Coll: c, Alg: a, Point: p}); found {
			if !ok || e.MeanTime < mean {
				alg, mean, ok = a, e.MeanTime, true
			}
		}
	}
	return alg, mean, ok
}

// TimeOf returns the mean time of one algorithm at a point.
func (d *Dataset) TimeOf(c coll.Collective, alg string, p featspace.Point) (float64, bool) {
	e, ok := d.Lookup(Key{Coll: c, Alg: alg, Point: p})
	return e.MeanTime, ok
}

// CollectOptions configures exhaustive collection.
type CollectOptions struct {
	Collectives []coll.Collective     // default: all four
	Workers     int                   // parallel simulator workers (default: NumCPU)
	Progress    func(done, total int) // optional progress callback
}

// Collect benchmarks every (collective, algorithm, point) combination on
// the runner and returns the dataset. Points whose node demand exceeds
// the runner's allocation, or with fewer than two ranks, are skipped.
// Simulator executions run on Workers goroutines, each with one
// simulation engine for the whole sweep, claiming specs in order;
// results are deterministic because measurement noise is derived
// per-spec. After a failure no further spec is handed out, and the error
// returned is that of the failing spec with the lowest index: every spec
// before it was handed out first, so the choice does not depend on
// scheduling.
func Collect(r *benchmark.Runner, points []featspace.Point, opts CollectOptions) (*Dataset, error) {
	colls := opts.Collectives
	if colls == nil {
		colls = coll.Collectives()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var specs []benchmark.Spec
	for _, c := range colls {
		for _, alg := range coll.AlgorithmNames(c) {
			for _, p := range points {
				if !p.Valid() || p.Nodes > r.MaxNodes() {
					continue
				}
				specs = append(specs, benchmark.Spec{Coll: c, Alg: alg, Point: p})
			}
		}
	}
	d := New()
	var (
		mu     sync.Mutex
		done   int
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, len(specs))
	)
	for w := min(workers, len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e simmpi.Engine
			defer e.Close()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				s := specs[i]
				m, err := r.RunOn(&e, s)
				if err != nil {
					errs[i] = fmt.Errorf("dataset: %v: %w", s, err)
					failed.Store(true)
					return
				}
				mu.Lock()
				d.Put(Key{Coll: s.Coll, Alg: s.Alg, Point: s.Point},
					Entry{MeanTime: m.MeanTime, WallTime: m.WallTime})
				done++
				if opts.Progress != nil {
					opts.Progress(done, len(specs))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Save writes the dataset to path with encoding/gob.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(d.Entries); err != nil {
		return fmt.Errorf("dataset: encode: %w", err)
	}
	return nil
}

// Load reads a dataset written by Save.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := New()
	if err := gob.NewDecoder(f).Decode(&d.Entries); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	return d, nil
}

// ErrMissing is returned by Replay for configurations absent from the
// dataset.
var ErrMissing = errors.New("dataset: configuration not in dataset")

// Replay serves benchmark "runs" from a precollected dataset — the
// paper's simulated-experiment backend. The allocation is only used to
// schedule parallel replay waves (Figure 13); the measurements
// themselves come from the table.
type Replay struct {
	DS    *Dataset
	Alloc cluster.Allocation
}

// Measure looks up one configuration, charging its recorded wall time.
func (r *Replay) Measure(spec benchmark.Spec) (benchmark.Measurement, error) {
	e, ok := r.DS.Lookup(Key{Coll: spec.Coll, Alg: spec.Alg, Point: spec.Point})
	if !ok {
		return benchmark.Measurement{}, fmt.Errorf("%w: %v", ErrMissing, spec)
	}
	return benchmark.Measurement{Spec: spec, MeanTime: e.MeanTime, WallTime: e.WallTime}, nil
}

// MaxNodes returns the replay topology's node count.
func (r *Replay) MaxNodes() int { return r.Alloc.Size() }

// MeasureWave replays a batch of benchmarks as topology-scheduled
// parallel waves and returns the measurements plus the total machine
// time (the sum of per-wave maxima).
func (r *Replay) MeasureWave(specs []benchmark.Spec) ([]benchmark.Measurement, float64, error) {
	reqs := make([]sched.Request, len(specs))
	for i, s := range specs {
		reqs[i] = sched.Request{ID: i, Nodes: s.Point.Nodes, Priority: float64(len(specs) - i)}
	}
	waves, err := sched.PlanAll(r.Alloc, reqs)
	if err != nil {
		return nil, 0, err
	}
	out := make([]benchmark.Measurement, 0, len(specs))
	var total float64
	for _, wave := range waves {
		var waveTime float64
		for _, p := range wave {
			m, err := r.Measure(specs[p.ID])
			if err != nil {
				return nil, 0, err
			}
			out = append(out, m)
			if m.WallTime > waveTime {
				waveTime = m.WallTime
			}
		}
		total += waveTime
	}
	return out, total, nil
}

// NonP2NodesPoints derives a test set from a P2 grid by replacing each
// node count with a nearby non-P2 value (Section III-B's "Non-P2 Nodes"
// dataset). The rng drives the perturbation; ppn and message sizes stay
// on the grid.
func NonP2NodesPoints(rng interface{ Intn(int) int }, space featspace.Space) []featspace.Point {
	return perturbPoints(space, func(p featspace.Point) featspace.Point {
		p.Nodes = nonP2Within(rng, p.Nodes)
		return p
	})
}

// NonP2MsgPoints derives a test set with non-P2 message sizes
// (Section III-B's "Non-P2 Message Size" dataset).
func NonP2MsgPoints(rng interface{ Intn(int) int }, space featspace.Space) []featspace.Point {
	return perturbPoints(space, func(p featspace.Point) featspace.Point {
		p.MsgBytes = nonP2Within(rng, p.MsgBytes)
		return p
	})
}

func perturbPoints(space featspace.Space, fn func(featspace.Point) featspace.Point) []featspace.Point {
	seen := make(map[featspace.Point]bool)
	var out []featspace.Point
	for _, p := range space.Points() {
		q := fn(p)
		if q.Valid() && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// nonP2Within picks a non-P2 value near v (between 3v/4 and 3v/2,
// exclusive of powers of two), matching featspace.NonP2Near but usable
// with the narrow rng interface.
func nonP2Within(rng interface{ Intn(int) int }, v int) int {
	if v < 4 {
		return 3
	}
	lo, hi := v-v/4, v+v/2
	for i := 0; i < 64; i++ {
		c := lo + rng.Intn(hi-lo+1)
		if !featspace.IsP2(c) {
			return c
		}
	}
	return v + v/4 + 1
}
