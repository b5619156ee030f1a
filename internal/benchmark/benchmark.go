// Package benchmark is the OSU-microbenchmark-style measurement layer
// (the paper uses the Ohio State University suite, Section V). A Runner
// owns a job's node allocation and dynamic environment and executes
// collective microbenchmarks on subsets of the allocation — one at a
// time (the safe sequential strategy of prior work, Section III-D) or as
// topology-scheduled parallel waves (ACCLAiM's strategy, Section IV-D).
// RunParallel takes a whole batch: it plans every wave first, then
// simulates all the batch's benchmarks on one pool of at most
// GOMAXPROCS host workers. The waves still follow one another in
// simulated time; only the host work overlaps, and every measurement is
// the same as if the benchmarks ran one by one.
//
// All times are virtual microseconds from the simulator; the "wall
// time" a measurement charges is the simulated machine time the
// benchmark occupied, which is what the paper's training-time x-axes
// sum.
package benchmark

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/heuristic"
	"acclaim/internal/netmodel"
	"acclaim/internal/obs"
	"acclaim/internal/sched"
	"acclaim/internal/simmpi"
	"acclaim/internal/stats"
	"acclaim/internal/traces"
)

// Metrics are the collection layer's registry handles: how much
// simulated machine time benchmarks consumed vs how much host time the
// simulator burned producing it, plus the measurement-noise draw count
// (every warmup and timed iteration redraws the noise factor). Build
// with NewMetrics; attach to Runner.Metrics (nil disables recording).
type Metrics struct {
	Runs       *obs.Counter // benchmark.runs_total: microbenchmarks executed
	NoiseDraws *obs.Counter // benchmark.noise_draws_total: per-iteration noise redraws
	SimUs      *obs.Gauge   // benchmark.sim_us: accumulated simulated machine time
	HostNs     *obs.Gauge   // benchmark.host_ns: accumulated host time inside the simulator
	WaveRuns   *obs.Counter // benchmark.wave_runs_total: benchmarks executed inside parallel waves

	// Sched receives the wave-planning metrics of RunParallel.
	Sched *sched.Metrics
}

// NewMetrics registers the collection metric set on reg (nil reg gives
// all-nil, no-op handles).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Runs:       reg.Counter("benchmark.runs_total"),
		NoiseDraws: reg.Counter("benchmark.noise_draws_total"),
		SimUs:      reg.Gauge("benchmark.sim_us"),
		HostNs:     reg.Gauge("benchmark.host_ns"),
		WaveRuns:   reg.Counter("benchmark.wave_runs_total"),
		Sched:      sched.NewMetrics(reg),
	}
}

// Spec names one microbenchmark: a collective, an algorithm, and a
// feature point.
type Spec struct {
	Coll  coll.Collective
	Alg   string
	Point featspace.Point
}

// String renders the spec compactly.
func (s Spec) String() string {
	return fmt.Sprintf("%v/%s@%v", s.Coll, s.Alg, s.Point)
}

// Measurement is the outcome of one microbenchmark.
type Measurement struct {
	Spec     Spec
	MeanTime float64 // mean per-iteration collective time (us), with noise
	WallTime float64 // total machine time the benchmark occupied (us)
}

// Config tunes the measurement protocol.
type Config struct {
	Warmup int // untimed iterations (default 2)
	Iters  int // timed iterations (default 5)
	Seed   int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	if c.Iters == 0 {
		c.Iters = 5
	}
	return c
}

// Runner executes microbenchmarks for one job. All methods are safe for
// concurrent use; measurement noise is derived per-spec so results do
// not depend on execution order.
type Runner struct {
	Params netmodel.Params
	Env    netmodel.Env
	Alloc  cluster.Allocation
	Config Config

	// Topology, when non-nil, prices every benchmark on that
	// interconnect instead of the allocation machine's default
	// Dragonfly — the scenario matrix sets it per cell.
	Topology netmodel.Topology

	// Metrics, when non-nil, receives collection observability. All
	// handles are concurrency-safe, so wave goroutines report directly.
	Metrics *Metrics
}

// NewRunner builds a runner for a job's allocation and environment.
func NewRunner(params netmodel.Params, env netmodel.Env, alloc cluster.Allocation, cfg Config) (*Runner, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Runner{Params: params, Env: env, Alloc: alloc, Config: cfg}, nil
}

// MaxNodes returns the largest benchmark this runner can host.
func (r *Runner) MaxNodes() int { return r.Alloc.Size() }

// subAllocation builds the allocation for a benchmark on the given
// allocation-node indices (or the first spec.Point.Nodes nodes when idx
// is nil).
func (r *Runner) subAllocation(spec Spec, idx []int) (cluster.Allocation, error) {
	need := spec.Point.Nodes
	if need > r.Alloc.Size() {
		return cluster.Allocation{}, fmt.Errorf("benchmark: %v needs %d nodes, allocation has %d",
			spec, need, r.Alloc.Size())
	}
	if idx == nil {
		idx = make([]int, need)
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) != need {
		return cluster.Allocation{}, fmt.Errorf("benchmark: %v needs %d nodes, placement has %d",
			spec, need, len(idx))
	}
	nodes := make([]int, need)
	for i, j := range idx {
		if j < 0 || j >= r.Alloc.Size() {
			return cluster.Allocation{}, fmt.Errorf("benchmark: placement index %d out of range", j)
		}
		nodes[i] = r.Alloc.Nodes[j]
	}
	return cluster.Allocation{Machine: r.Alloc.Machine, Nodes: nodes}, nil
}

// baseTime runs the simulator once for the spec on e (a fresh engine
// when e is nil) and returns the noise-free collective time.
func (r *Runner) baseTime(e *simmpi.Engine, spec Spec, idx []int) (float64, error) {
	if m := r.Metrics; m != nil {
		t0 := obs.NowNs()
		defer func() { m.HostNs.Add(float64(obs.NowNs() - t0)) }()
	}
	sub, err := r.subAllocation(spec, idx)
	if err != nil {
		return 0, err
	}
	model, err := netmodel.NewWithTopology(r.Params, r.Env, sub, spec.Point.PPN, r.Topology)
	if err != nil {
		return 0, err
	}
	res, err := coll.ExecOn(e, model, spec.Coll, spec.Alg, spec.Point.MsgBytes, coll.Options{Op: simmpi.OpSum})
	if err != nil {
		return 0, err
	}
	return res.MaxClock, nil
}

// specSeed derives a deterministic per-spec noise seed so measurements
// are reproducible regardless of the order benchmarks execute in.
func (r *Runner) specSeed(spec Spec) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d",
		spec.Coll, spec.Alg, spec.Point.Nodes, spec.Point.PPN, spec.Point.MsgBytes, r.Config.Seed)
	return int64(h.Sum64())
}

// noiseRand is a reusable per-spec noise stream: a stats.Source reseeded
// for each measurement and the rand.Rand that draws from it.
type noiseRand struct {
	src stats.Source
	rng *rand.Rand
}

// noiseRands hands each concurrent measure call its own noiseRand, so
// a measurement allocates no generator.
var noiseRands = sync.Pool{New: func() any {
	n := new(noiseRand)
	n.rng = rand.New(&n.src)
	return n
}}

// measure converts a base time into a Measurement by applying
// per-iteration noise analytically (the simulator is deterministic, so
// repeated executions would be identical; real repetitions differ by
// measurement noise).
func (r *Runner) measure(spec Spec, base float64) Measurement {
	nr := noiseRands.Get().(*noiseRand)
	defer noiseRands.Put(nr)
	nr.src.Seed(r.specSeed(spec))
	rng := nr.rng
	noise := func() float64 {
		f := 1 + rng.NormFloat64()*r.Env.NoiseSigma
		if f < 0.5 {
			f = 0.5
		}
		return f
	}
	var sum, wall float64
	for i := 0; i < r.Config.Warmup; i++ {
		wall += base * noise()
	}
	for i := 0; i < r.Config.Iters; i++ {
		t := base * noise()
		sum += t
		wall += t
	}
	if m := r.Metrics; m != nil {
		m.Runs.Inc()
		m.NoiseDraws.Add(uint64(r.Config.Warmup + r.Config.Iters))
		m.SimUs.Add(wall)
	}
	return Measurement{Spec: spec, MeanTime: sum / float64(r.Config.Iters), WallTime: wall}
}

// Run executes one microbenchmark on the first Point.Nodes nodes of the
// allocation (the sequential strategy).
func (r *Runner) Run(spec Spec) (Measurement, error) {
	return r.RunOn(nil, spec)
}

// RunOn is Run on the caller's simulation engine, for a worker that
// measures many specs one after another; a nil engine is Run. The
// measurement is the same either way.
func (r *Runner) RunOn(e *simmpi.Engine, spec Spec) (Measurement, error) {
	base, err := r.baseTime(e, spec, nil)
	if err != nil {
		return Measurement{}, err
	}
	return r.measure(spec, base), nil
}

// RunSelected prices one collective call the way a tuned MPI library
// would: the algorithm comes from the selection source (a
// ruleserver.Index over the tuned rule file) when it has a rule for
// the call, and from the library's built-in size-cutoff heuristic when
// it does not (an untuned collective, or no source at all — exactly
// MPICH's behaviour when no tuning file is loaded). It returns the
// measurement and the algorithm that was used.
func (r *Runner) RunSelected(c coll.Collective, src coll.AlgSource, p featspace.Point) (Measurement, string, error) {
	return r.runSelected(nil, c, src, p)
}

// runSelected is RunSelected on engine e (a fresh one when e is nil).
func (r *Runner) runSelected(e *simmpi.Engine, c coll.Collective, src coll.AlgSource, p featspace.Point) (Measurement, string, error) {
	alg, ok := "", false
	if src != nil {
		alg, ok = src.Lookup(c, p.Nodes, p.PPN, p.MsgBytes)
	}
	if !ok {
		alg = heuristic.Select(c, p)
	}
	m, err := r.RunOn(e, Spec{Coll: c, Alg: alg, Point: p})
	return m, alg, err
}

// Replay runs an application on a nodes x ppn job: it prices every call
// site as RunSelected does under src (nil: the library defaults) and
// returns one pass's collective time, each site's mean time counted
// once per execution, summed in call order (microseconds). Every call
// site is simulated on one engine.
func (r *Runner) Replay(calls []traces.Call, nodes, ppn int, src coll.AlgSource) (float64, error) {
	var e simmpi.Engine
	defer e.Close()
	var total float64
	for _, call := range calls {
		m, _, err := r.runSelected(&e, call.Coll, src, featspace.Point{Nodes: nodes, PPN: ppn, MsgBytes: call.MsgBytes})
		if err != nil {
			return 0, err
		}
		total += m.MeanTime * float64(call.Count)
	}
	return total, nil
}

// RunSequential executes the specs one after another, returning the
// measurements and the total machine time consumed (the sum of wall
// times — nodes not in use sit idle, exactly the inefficiency Section
// III-D describes).
func (r *Runner) RunSequential(specs []Spec) ([]Measurement, float64, error) {
	var e simmpi.Engine
	defer e.Close()
	var total float64
	out := make([]Measurement, 0, len(specs))
	for _, s := range specs {
		m, err := r.RunOn(&e, s)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, m)
		total += m.WallTime
	}
	return out, total, nil
}

// RunParallel schedules all specs with the topology-aware greedy
// scheduler and executes them wave by wave. Requests carry the given
// priorities (higher first); priorities must be pre-sorted by the
// caller if a specific order matters — RunParallel preserves input
// order as the greedy order. It returns all measurements in wave order,
// the total machine time (sum of wave maxima), and the per-wave
// parallelism.
//
// Waves stay sequential in simulated time, but the host evaluates every
// placement of every wave on one pool (see evaluate): a measurement
// depends only on its spec and placement, so the results, the wave
// maxima and their sum are the same at every GOMAXPROCS.
func (r *Runner) RunParallel(specs []Spec) ([]Measurement, float64, []int, error) {
	reqs := make([]sched.Request, len(specs))
	for i, s := range specs {
		reqs[i] = sched.Request{ID: i, Nodes: s.Point.Nodes, Priority: float64(len(specs) - i)}
	}
	var schedMet *sched.Metrics
	if r.Metrics != nil {
		schedMet = r.Metrics.Sched
	}
	waves, err := sched.PlanAllObs(r.Alloc, reqs, schedMet)
	if err != nil {
		return nil, 0, nil, err
	}
	var flat []sched.Placement
	for _, wave := range waves {
		flat = append(flat, wave...)
	}
	out, err := r.evaluate(specs, flat)
	if err != nil {
		return nil, 0, nil, err
	}
	var total float64
	k := 0
	for _, wave := range waves {
		var waveTime float64
		for _, m := range out[k : k+len(wave)] {
			if m.WallTime > waveTime {
				waveTime = m.WallTime
			}
		}
		total += waveTime
		k += len(wave)
	}
	if m := r.Metrics; m != nil {
		m.WaveRuns.Add(uint64(len(out)))
	}
	return out, total, sched.Parallelism(waves), nil
}

// evaluate measures every placement on a pool of at most GOMAXPROCS
// workers that claim placements from an atomic counter; placement i's
// measurement lands in slot i. Each worker simulates its placements on
// one engine, which it closes when the batch is done. After a failure
// no further placement is claimed. Placements are claimed in slot
// order, so every slot before a failed one was evaluated, and the error
// returned — the first in slot order — does not depend on scheduling.
func (r *Runner) evaluate(specs []Spec, ps []sched.Placement) ([]Measurement, error) {
	out := make([]Measurement, len(ps))
	errs := make([]error, len(ps))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(ps)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e simmpi.Engine
			defer e.Close()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(ps) {
					return
				}
				spec := specs[ps[i].ID]
				base, err := r.baseTime(&e, spec, ps[i].NodeIdx)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = r.measure(spec, base)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
