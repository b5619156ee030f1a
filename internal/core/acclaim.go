// Package core implements ACCLAiM, the paper's contribution: a
// practical active-learning autotuner for MPI collective algorithm
// selection. Relative to FACT (the prior state of the art) it makes
// four changes, one per subsection of Section IV:
//
//   - Training point selection (IV-A): a single random-forest model per
//     collective (algorithm enumerated as a feature) picks its own next
//     training point by jackknife variance — no surrogate model.
//   - Non-power-of-two points (IV-B): every fifth selection swaps the
//     chosen power-of-two message size for a random non-P2 neighbour
//     (the 80-20 split of Figure 11), so the model learns non-P2 trends
//     at no extra collection cost.
//   - Model testing (IV-C): convergence is declared from the cumulative
//     jackknife variance across the feature space — four consecutive
//     iterations with a small delta — eliminating the test set and its
//     6–11x collection overhead.
//   - Data collection (IV-D): batches of high-variance points are
//     scheduled onto disjoint racks by the topology-aware greedy
//     scheduler and benchmarked in parallel waves.
//
// After convergence the trained models are lowered to an MPICH-style
// JSON rule file (Section V, Figure 9) that the library consults at
// collective-call time: BuildRulesFile for a tuning service, JobFile
// for a production job, which first verifies the job's own cell.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/coll"
	"acclaim/internal/exhaustive"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
	"acclaim/internal/stats"
)

// Config parameterises ACCLAiM.
type Config struct {
	Space  featspace.Space
	Forest forest.Config
	// NonP2Every makes every k-th selection non-P2 (default 5: the
	// paper's 80-20 split; 2 gives the 50-50 ablation). Negative
	// disables non-P2 mixing entirely (the all-P2 ablation).
	NonP2Every int

	// SeedPoints adds evenly spaced extra seeds on top of the
	// stratified seed design (usually 0). The loop always starts from a
	// space-covering design: one sample per (nodes, ppn, algorithm)
	// stratum at the smallest and largest message sizes, so the forest
	// never has to extrapolate into a stratum it has never seen —
	// random forests extrapolate by returning a neighbouring cell's
	// value, which silently mis-ranks algorithms at the grid corners.
	// Set SparseSeed to use SeedPoints alone (the ablation baseline).
	SeedPoints int
	SparseSeed bool

	// Convergence: training stops when the windowed mean of the
	// cumulative variance improves by less than Epsilon (relative) from
	// one Window to the next — the noise-robust form of the paper's
	// "Window consecutive iterations with a small variance delta"
	// criterion (retraining the forest adds mean-zero churn, so window
	// means are compared). Defaults: Window 5, Epsilon 0.05.
	// MinSamples additionally guards against stopping on an early
	// plateau (default: 10% of the candidate pool).
	Window        int
	Epsilon       float64
	MinSamples    int
	MaxIterations int // safety cap (default 400)

	BatchSize int  // candidates per collection wave (default 4)
	Parallel  bool // use wave collection when the backend supports it

	Seed int64

	// Evaluator, if set, scores the model each iteration (typically
	// average slowdown against a replay dataset) for the trace figures.
	Evaluator func(c coll.Collective, sel autotune.Selector) (float64, error)

	// Recorder receives span events for the tuning timeline: a root
	// span per tuned collective, one span per active-learning round,
	// and child spans for the round's fit / score / pick / collect
	// phases. Nil means obs.Nop, whose calls are free — the seam stays
	// in place at zero cost (AllocsPerRun-gated).
	Recorder obs.Recorder

	// Registry, when non-nil, receives tuner metrics: round/sample
	// counters, per-phase duration histograms, and a per-collective
	// convergence-variance gauge updated every round.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.NonP2Every == 0 {
		c.NonP2Every = 5
	}
	if c.SparseSeed && c.SeedPoints == 0 {
		c.SeedPoints = 4
	}
	if c.Window == 0 {
		c.Window = 5
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 400
	}
	if c.BatchSize == 0 {
		c.BatchSize = 4
	}
	if c.Recorder == nil {
		c.Recorder = obs.Nop
	}
	return c
}

// tunerMetrics are the tuner's pre-resolved registry handles; all nil
// (no-op) when no Registry is configured.
//
//acclaim:frozen
type tunerMetrics struct {
	rounds    *obs.Counter      // tuner.rounds_total: active-learning rounds
	samples   *obs.Counter      // tuner.samples_total: training samples collected
	collects  *obs.Counter      // tuner.collects_total: collection batches issued
	fitNs     *obs.HDRHistogram // tuner.fit_ns: forest retrain time per round
	scoreNs   *obs.HDRHistogram // tuner.score_ns: jackknife scoring sweep time per round
	pickNs    *obs.HDRHistogram // tuner.pick_ns: batch-pick time per round
	collectNs *obs.HDRHistogram // tuner.collect_ns: host time per collection batch
}

func newTunerMetrics(reg *obs.Registry) tunerMetrics {
	return tunerMetrics{
		rounds:    reg.Counter("tuner.rounds_total"),
		samples:   reg.Counter("tuner.samples_total"),
		collects:  reg.Counter("tuner.collects_total"),
		fitNs:     reg.Histogram("tuner.fit_ns"),
		scoreNs:   reg.Histogram("tuner.score_ns"),
		pickNs:    reg.Histogram("tuner.pick_ns"),
		collectNs: reg.Histogram("tuner.collect_ns"),
	}
}

// endRound is the per-round instrumentation hook: round attributes on
// the span, the per-collective convergence gauge, and the round
// counter. It runs inside the active-learning loop, so it must stay
// allocation-free — TestRoundInstrumentationZeroAlloc pins it with
// AllocsPerRun and acclaim-lint's zeroalloc analyzer rejects syntactic
// allocation sites at review time.
//
//acclaim:zeroalloc
func (m tunerMetrics) endRound(rec obs.Recorder, round obs.SpanID, iter, samples int, cum float64, cumVar *obs.Gauge) {
	rec.SetAttr(round, "round", float64(iter))
	rec.SetAttr(round, "samples", float64(samples))
	rec.SetAttr(round, "cum_variance", cum)
	cumVar.Set(cum)
	m.rounds.Inc()
}

// Tuner is an ACCLAiM autotuner over a benchmark backend.
type Tuner struct {
	cfg     Config
	backend autotune.Backend
	met     tunerMetrics
}

// New builds a tuner.
func New(cfg Config, backend autotune.Backend) *Tuner {
	cfg = cfg.withDefaults()
	return &Tuner{cfg: cfg, backend: backend, met: newTunerMetrics(cfg.Registry)}
}

// Config returns the tuner's effective (default-filled) configuration.
func (t *Tuner) Config() Config { return t.cfg }

// Result is a trained ACCLAiM autotuner for one collective.
type Result struct {
	Coll        coll.Collective
	Model       *autotune.Model
	Ledger      autotune.Ledger
	Trace       []autotune.TracePoint
	Order       []autotune.Sample // samples in collection order
	SeedSamples int               // leading entries of Order from the seed design
	Converged   bool
	Parallelism []int // benchmarks per collection wave
}

// Select implements autotune.Selector.
func (r *Result) Select(p featspace.Point) string { return r.Model.Select(p) }

// SelectBatch implements autotune.BatchSelector via the unified model's
// batched sweep.
func (r *Result) SelectBatch(pts []featspace.Point) []string { return r.Model.SelectBatch(pts) }

// NonP2Share returns the fraction of actively *selected* samples (the
// post-seed part of the collection order) with non-P2 message sizes —
// ~1/NonP2Every by construction, the paper's 80-20 split.
func (r *Result) NonP2Share() float64 {
	sel := r.Order
	if r.SeedSamples < len(sel) {
		sel = sel[r.SeedSamples:]
	}
	if len(sel) == 0 {
		return 0
	}
	n := 0
	for _, s := range sel {
		if !featspace.IsP2(s.Candidate.Point.MsgBytes) {
			n++
		}
	}
	return float64(n) / float64(len(sel))
}

// Tune runs the ACCLAiM training loop for one collective. When a
// Recorder/Registry is configured, every round emits a span tree
// (fit, score, pick, collect) plus round-level attributes (cumulative
// variance, sample count) — the raw material of the run report's
// per-phase breakdown and Fig. 9-style convergence curves.
func (t *Tuner) Tune(c coll.Collective) (*Result, error) {
	cands := autotune.Candidates(c, t.cfg.Space, t.backend.MaxNodes())
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: no candidates for %v on this backend", c)
	}
	rng := rand.New(rand.NewSource(t.cfg.Seed + int64(c)*31337))
	res := &Result{Coll: c}
	ts := autotune.NewTrainingSet(c)
	detector := &stats.StallDetector{Window: t.cfg.Window, MinImprove: t.cfg.Epsilon}

	rec := t.cfg.Recorder
	//acclaim:allow metricname root span is tune:<collective>; c.String() is a fixed lower-case enum name
	root := rec.StartSpan("tune:"+c.String(), obs.NoSpan)
	defer rec.EndSpan(root)
	//acclaim:allow metricname per-collective gauge tuner.<collective>.cum_variance; segments are fixed enum names
	cumVarGauge := t.cfg.Registry.Gauge("tuner." + c.String() + ".cum_variance")

	if err := t.collectSpanned(c, t.seedDesign(cands), ts, res, rec, root, "seed_collect"); err != nil {
		return nil, err
	}
	res.SeedSamples = len(res.Order)

	selCount := 0
	// One scoring arena for the whole run: the candidate matrix and
	// variance buffer are encoded into the same backing arrays every
	// round, so steady-state sweeps stop allocating after round one.
	var arena autotune.Arena
	for iter := 0; iter < t.cfg.MaxIterations; iter++ {
		round := rec.StartSpan("round", root)

		fit := rec.StartSpan("fit", round)
		t0 := obs.NowNs()
		model, err := autotune.TrainModel(t.cfg.Forest, ts)
		t.met.fitNs.Observe(float64(obs.NowNs() - t0))
		rec.EndSpan(fit)
		if err != nil {
			rec.EndSpan(round)
			return nil, err
		}
		res.Model = model

		// Jackknife variance for every candidate — one fused
		// compiled-kernel sweep across the forest's worker pool; their
		// sum is the cumulative variance used in place of a test-set
		// metric. The sum runs in index order, so it is bit-identical
		// at any worker count.
		score := rec.StartSpan("score", round)
		t0 = obs.NowNs()
		variances := model.VarianceBatchInto(&arena, cands)
		var cum float64
		for _, v := range variances {
			cum += v
		}
		t.met.scoreNs.Observe(float64(obs.NowNs() - t0))
		rec.EndSpan(score)

		tp := autotune.TracePoint{
			Iter:           iter,
			Samples:        ts.Len(),
			CollectionTime: res.Ledger.Collection,
			CumVariance:    cum,
			Slowdown:       math.NaN(),
		}
		if t.cfg.Evaluator != nil {
			sd, err := t.cfg.Evaluator(c, model)
			if err != nil {
				rec.EndSpan(round)
				return nil, err
			}
			tp.Slowdown = sd
		}
		res.Trace = append(res.Trace, tp)

		t.met.endRound(rec, round, iter, ts.Len(), cum, cumVarGauge)

		minSamples := t.cfg.MinSamples
		if minSamples == 0 {
			minSamples = len(cands) / 10
		}
		// The detector only observes once the sample floor is met, so
		// an early plateau cannot latch convergence.
		if ts.Len() >= minSamples && detector.Observe(cum) {
			res.Converged = true
			rec.EndSpan(round)
			break
		}

		// Pick the next batch: highest-variance uncollected candidates.
		pick := rec.StartSpan("pick", round)
		t0 = obs.NowNs()
		batch := t.pickBatch(cands, variances, ts)
		t.met.pickNs.Observe(float64(obs.NowNs() - t0))
		rec.EndSpan(pick)
		if len(batch) == 0 {
			rec.EndSpan(round)
			break // feature space exhausted
		}
		// Every NonP2Every-th selection trades its P2 message size for a
		// random non-P2 neighbour (Section IV-B).
		for i := range batch {
			selCount++
			if t.cfg.NonP2Every > 0 && selCount%t.cfg.NonP2Every == 0 {
				batch[i].Point.MsgBytes = featspace.NonP2Near(rng, batch[i].Point.MsgBytes)
			}
		}
		err = t.collectSpanned(c, batch, ts, res, rec, round, "collect")
		rec.EndSpan(round)
		if err != nil {
			return nil, err
		}
	}

	if res.Model == nil {
		model, err := autotune.TrainModel(t.cfg.Forest, ts)
		if err != nil {
			return nil, err
		}
		res.Model = model
	}
	return res, nil
}

// collectSpanned wraps collect in a span carrying the batch size and
// the simulated machine time the batch cost.
func (t *Tuner) collectSpanned(c coll.Collective, batch []autotune.Candidate, ts *autotune.TrainingSet,
	res *Result, rec obs.Recorder, parent obs.SpanID, name string) error {

	//acclaim:allow metricname span name is a caller-supplied literal ("seed_collect" or "collect")
	sp := rec.StartSpan(name, parent)
	before := res.Ledger.Collection
	t0 := obs.NowNs()
	err := t.collect(c, batch, ts, res)
	t.met.collectNs.Observe(float64(obs.NowNs() - t0))
	if err == nil {
		t.met.collects.Inc()
		t.met.samples.Add(uint64(len(batch)))
		rec.SetAttr(sp, "batch", float64(len(batch)))
		rec.SetAttr(sp, "sim_us", res.Ledger.Collection-before)
	}
	rec.EndSpan(sp)
	return err
}

// seedDesign builds the initial training batch. Default: the stratified
// space-covering design — for every (nodes, ppn, algorithm) stratum,
// the candidates at the smallest and largest grid message sizes — plus
// any extra evenly spaced SeedPoints. With SparseSeed, only the evenly
// spaced points are used.
func (t *Tuner) seedDesign(cands []autotune.Candidate) []autotune.Candidate {
	var seeds []autotune.Candidate
	if !t.cfg.SparseSeed {
		// The message axis is shared across strata (the grid is a cross
		// product), so the per-stratum extremes are exactly the
		// candidates at the global smallest and largest message sizes.
		// Seeding both extremes is deliberately front-loaded cost: the
		// paper's own Figure 10 notes a gap at the left of its graphs
		// where "the first training point was expensive to collect".
		minMsg, maxMsg := cands[0].Point.MsgBytes, cands[0].Point.MsgBytes
		for _, cand := range cands {
			if cand.Point.MsgBytes < minMsg {
				minMsg = cand.Point.MsgBytes
			}
			if cand.Point.MsgBytes > maxMsg {
				maxMsg = cand.Point.MsgBytes
			}
		}
		for _, cand := range cands {
			if m := cand.Point.MsgBytes; m == minMsg || m == maxMsg {
				seeds = append(seeds, cand)
			}
		}
	}
	nExtra := t.cfg.SeedPoints
	if nExtra > len(cands) {
		nExtra = len(cands)
	}
	for i := 0; i < nExtra; i++ {
		seeds = append(seeds, cands[i*(len(cands)-1)/max(nExtra-1, 1)])
	}
	if len(seeds) == 0 {
		seeds = append(seeds, cands[0])
	}
	return seeds
}

// pickBatch returns up to BatchSize uncollected candidates in descending
// variance order.
func (t *Tuner) pickBatch(cands []autotune.Candidate, variances []float64, ts *autotune.TrainingSet) []autotune.Candidate {
	type scored struct {
		idx int
		v   float64
	}
	var open []scored
	for i, cand := range cands {
		if !ts.Has(cand) {
			open = append(open, scored{i, variances[i]})
		}
	}
	sort.Slice(open, func(a, b int) bool {
		if open[a].v != open[b].v {
			return open[a].v > open[b].v
		}
		return open[a].idx < open[b].idx
	})
	k := t.cfg.BatchSize
	if !t.parallel() {
		k = 1
	}
	if k > len(open) {
		k = len(open)
	}
	batch := make([]autotune.Candidate, k)
	for i := 0; i < k; i++ {
		batch[i] = cands[open[i].idx]
	}
	return batch
}

func (t *Tuner) parallel() bool {
	if !t.cfg.Parallel {
		return false
	}
	_, ok := t.backend.(autotune.WaveBackend)
	return ok
}

// collect benchmarks a batch — as a topology-scheduled parallel wave
// when enabled — and charges the machine time to the ledger.
func (t *Tuner) collect(c coll.Collective, batch []autotune.Candidate, ts *autotune.TrainingSet, res *Result) error {
	if len(batch) == 0 {
		return nil
	}
	if wb, ok := t.backend.(autotune.WaveBackend); ok && t.cfg.Parallel {
		specs := make([]benchmark.Spec, len(batch))
		for i, cand := range batch {
			specs[i] = cand.Spec(c)
		}
		ms, wall, err := wb.MeasureWave(specs)
		if err != nil {
			return fmt.Errorf("core: wave collection: %w", err)
		}
		for _, m := range ms {
			cand := candidateFor(m.Spec)
			ts.Add(cand, m.MeanTime, m.WallTime)
			res.Order = append(res.Order, autotune.Sample{Candidate: cand, Mean: m.MeanTime, Wall: m.WallTime})
		}
		res.Ledger.Collection += wall
		res.Parallelism = append(res.Parallelism, len(batch))
		return nil
	}
	for _, cand := range batch {
		m, err := t.backend.Measure(cand.Spec(c))
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		ts.Add(cand, m.MeanTime, m.WallTime)
		res.Order = append(res.Order, autotune.Sample{Candidate: cand, Mean: m.MeanTime, Wall: m.WallTime})
		res.Ledger.Collection += m.WallTime
		res.Parallelism = append(res.Parallelism, 1)
	}
	return nil
}

// TuneAll trains every collective in the list (the user's "collective
// list" from Section V) and returns the results keyed by collective.
func (t *Tuner) TuneAll(colls []coll.Collective) (map[coll.Collective]*Result, error) {
	if colls == nil {
		colls = coll.Collectives()
	}
	out := make(map[coll.Collective]*Result, len(colls))
	for _, c := range colls {
		r, err := t.Tune(c)
		if err != nil {
			return nil, err
		}
		out[c] = r
	}
	return out, nil
}

// BuildRulesFile lowers trained models into the MPICH-style JSON
// selection file (Section V), one table per tuned collective, using the
// Figure 9 midpoint logic over the tuner's grid.
func (t *Tuner) BuildRulesFile(results map[coll.Collective]*Result, machine string) (*rules.File, error) {
	return buildFile(t.cfg.Space, results, machine)
}

// JobFile is the step after tuning in a production job (Figure 1(b)).
// The job's exact (nodes, ppn) is known, so every algorithm is
// benchmarked there across the grid's P2 message sizes, MPITune/OPTO
// style, through the tuner's backend: one batch per collective, in
// colls order. The file then takes those exact winners at the job cell
// and each collective's model selection everywhere else, where
// subcommunicators and later jobs on the allocation land.
//
// The cell is recorded as an "exhaustive.cell" root span and the file
// build as a "rules.build" root span. The cell results come back in
// colls order; their ledgers are the machine time the cell charged.
func (t *Tuner) JobFile(results map[coll.Collective]*Result, colls []coll.Collective,
	nodes, ppn int, machine string) (*rules.File, []*exhaustive.Result, error) {

	wb, ok := t.backend.(autotune.WaveBackend)
	if !ok {
		return nil, nil, fmt.Errorf("core: job-cell verification needs a wave backend")
	}
	cell := make([]featspace.Point, len(t.cfg.Space.Msgs))
	for i, msg := range t.cfg.Space.Msgs {
		cell[i] = featspace.Point{Nodes: nodes, PPN: ppn, MsgBytes: msg}
	}
	rec := t.cfg.Recorder
	sp := rec.StartSpan("exhaustive.cell", obs.NoSpan)
	cells := make([]*exhaustive.Result, len(colls))
	exact := make(map[coll.Collective]*exhaustive.Result, len(colls))
	for i, c := range colls {
		res := results[c]
		if res == nil {
			rec.EndSpan(sp)
			return nil, nil, fmt.Errorf("core: no tuning result for %v", c)
		}
		ex, err := exhaustive.Tune(wb, c, cell, res.Model.Select)
		if err != nil {
			rec.EndSpan(sp)
			return nil, nil, err
		}
		cells[i], exact[c] = ex, ex
	}
	rec.EndSpan(sp)

	sp = rec.StartSpan("rules.build", obs.NoSpan)
	f, err := buildFile(t.cfg.Space, exact, machine)
	rec.EndSpan(sp)
	if err != nil {
		return nil, nil, err
	}
	return f, cells, nil
}

// buildFile lowers one selector per collective into a validated rule
// file over space.
func buildFile[S autotune.Selector](space featspace.Space, sels map[coll.Collective]S, machine string) (*rules.File, error) {
	f := rules.NewFile(machine)
	f.Comment = "generated by ACCLAiM (Go reproduction)"
	for c, sel := range sels {
		table := rules.BuildTable(c.String(), space, sel.Select)
		if err := table.Validate(); err != nil {
			return nil, err
		}
		f.Tables[c.String()] = table
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// LearningCurve trains unified models on prefixes of a completed run's
// selection order and evaluates each (the Figure 11 series).
func (t *Tuner) LearningCurve(res *Result, fracs []float64,
	eval func(autotune.Selector) (float64, error)) ([]autotune.CurvePoint, error) {

	return autotune.LearningCurve(res.Coll, res.Order, fracs,
		func(ts *autotune.TrainingSet) (autotune.Selector, error) {
			return autotune.TrainModel(t.cfg.Forest, ts)
		}, eval)
}

// candidateFor reconstructs a candidate (with algorithm index) from a
// measured spec.
func candidateFor(spec benchmark.Spec) autotune.Candidate {
	idx, _ := coll.AlgIndex(spec.Coll, spec.Alg)
	return autotune.Candidate{Point: spec.Point, Alg: spec.Alg, AlgIdx: idx}
}
