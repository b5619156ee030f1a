// Package obs is the repository's observability layer: a
// dependency-free metrics registry (atomic counters, float gauges,
// HDR histograms, read-on-demand func metrics) plus lightweight
// span tracing (trace.go). Every stage of the ACCLAiM pipeline — tuner
// rounds, forest training, the wave scheduler, benchmark collection,
// and the rule server — reports into one Registry, which can be
// snapshotted into a run report, served as Prometheus text or
// expvar-style JSON (http.go), or read programmatically.
//
// Three properties shape the API:
//
//   - Handles, not name lookups, on hot paths. Callers resolve a
//     *Counter/*Gauge/*HDRHistogram once at setup; the per-event
//     operation is a single atomic instruction (a CAS loop for
//     Gauge.Add) with zero allocation, gated by testing.AllocsPerRun
//     and the benchguard zero-alloc baseline.
//   - One distribution type, read through its snapshot. Every
//     histogram is an HDRHistogram on one log-linear grid (hdr.go);
//     handles only record, and counts, sums and quantiles are read
//     from an HDRSnapshot.
//   - Nil handles are no-ops. Every handle method is nil-receiver safe
//     and Registry methods on a nil *Registry return nil handles, so
//     instrumented packages carry optional metrics without sprinkling
//     conditionals over their hot paths.
//
// Metric naming scheme: `<package>.<metric>[_<unit>]`, lower_snake
// within segments, dots between segments (flattened to underscores for
// Prometheus). Counters of events end in `_total`; accumulated or
// sampled durations end in their unit (`_ns` for host nanoseconds,
// `_us` for simulated microseconds) — the run-report golden test
// normalises exactly the `_ns` suffix, which is why host-clock metrics
// must never hide behind any other name.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a cumulative event counter. The zero value is ready to
// use; all methods are safe for concurrent use and nil receivers
// no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d and returns the new value (0 on a
// nil receiver).
//
//acclaim:zeroalloc
func (c *Counter) Add(d uint64) uint64 {
	if c == nil {
		return 0
	}
	return c.v.Add(d)
}

// Inc increments the counter by one and returns the new value.
//
//acclaim:zeroalloc
func (c *Counter) Inc() uint64 { return c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 gauge (or float accumulator, via Add). The zero
// value is ready to use; all methods are safe for concurrent use and
// nil receivers no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//acclaim:zeroalloc
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d (a CAS loop; gauges used as float accumulators
// are expected to see modest contention).
//
//acclaim:zeroalloc
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// funcMetric reads a scalar on demand (gauge semantics); hdrFunc reads
// a whole HDR histogram on demand. Both let external state — like the
// rule server's per-epoch snapshot counters — surface through the
// registry without being owned by it.
type funcMetric func() float64
type hdrFunc func() *HDRRecorder

// Registry is a named collection of metrics. Handle getters are
// get-or-create and safe for concurrent use; a nil *Registry returns
// nil handles, which no-op. Output order is registration order.
type Registry struct {
	mu    sync.Mutex
	order []string          // guarded by mu
	by    map[string]any    // guarded by mu
	help  map[string]string // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]any), help: make(map[string]string)}
}

// Describe attaches a help string to a metric name, rendered as a
// `# HELP` line by WritePrometheus. Metrics never described (or
// described with "") render exactly as before — type line only — so
// existing golden outputs are unchanged until a caller opts in.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if help == "" {
		delete(r.help, name)
		return
	}
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[name] = help
}

// lookup returns the metric under name, creating it with mk on first
// use. It panics if the name is already bound to a different kind —
// observability name collisions are programming errors worth failing
// loudly on.
func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.by[name]; ok {
		return m
	}
	m := mk()
	r.by[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the counter registered under name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return new(Counter) })
	c, ok := m.(*Counter)
	if !ok {
		panic("obs: " + name + " is not a counter")
	}
	return c
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return new(Gauge) })
	g, ok := m.(*Gauge)
	if !ok {
		panic("obs: " + name + " is not a gauge")
	}
	return g
}

// Histogram returns the HDR histogram registered under name, creating
// it on first use. Every distribution metric shares the one log-linear
// grid (hdr.go), so there are no bounds to choose.
func (r *Registry) Histogram(name string) *HDRHistogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return new(HDRHistogram) })
	h, ok := m.(*HDRHistogram)
	if !ok {
		panic("obs: " + name + " is not a histogram")
	}
	return h
}

// HDR returns the sharded high-dynamic-range latency recorder
// registered under name, creating it with the default shard count
// (one per GOMAXPROCS) on first use.
func (r *Registry) HDR(name string) *HDRRecorder {
	if r == nil {
		return nil
	}
	m := r.lookup(name, func() any { return NewHDRRecorder(0) })
	h, ok := m.(*HDRRecorder)
	if !ok {
		panic("obs: " + name + " is not an HDR recorder")
	}
	return h
}

// HDRFunc registers an HDR recorder read on demand (the rule server's
// per-epoch latency recorder, which must follow the atomic snapshot
// pointer); fn may return nil, which renders as an empty histogram.
func (r *Registry) HDRFunc(name string, fn func() *HDRRecorder) {
	if r == nil {
		return
	}
	r.lookup(name, func() any { return hdrFunc(fn) })
}

// Func registers a scalar read on demand at snapshot/serve time —
// the bridge for state that lives outside the registry (for example
// the rule server's per-epoch snapshot counters, which must keep their
// reset-on-swap semantics). No-op on a nil registry.
func (r *Registry) Func(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, func() any { return funcMetric(fn) })
}

// Snapshot renders every metric to a JSON-marshalable value: counters
// as uint64, gauges and func metrics as float64, histograms and HDR
// recorders as HDRSnapshot. The map is fresh on every call.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	by := make(map[string]any, len(r.by))
	for k, v := range r.by {
		by[k] = v
	}
	r.mu.Unlock()

	out := make(map[string]any, len(names))
	for _, name := range names {
		switch m := by[name].(type) {
		case *Counter:
			out[name] = m.Load()
		case *Gauge:
			out[name] = m.Load()
		case funcMetric:
			out[name] = m()
		case *HDRHistogram:
			out[name] = m.Snapshot()
		case *HDRRecorder:
			out[name] = m.Snapshot()
		case hdrFunc:
			out[name] = m().Snapshot()
		}
	}
	return out
}
