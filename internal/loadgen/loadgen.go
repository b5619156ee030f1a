// Package loadgen is the SLO measurement harness for the serving path:
// it fires mixed (collective, nodes, ppn, message-size) selection
// queries at a rule server — in-process through a Registry, or over
// the binary wire protocol — and reports exact-within-bucket-resolution
// latency quantiles and throughput as an acclaim.load_report/v1 JSON
// document.
//
// Two drivers are provided. The closed-loop driver has each worker
// issue its next request the moment the previous one completes — it
// measures service capacity (max sustainable throughput). The
// open-loop driver schedules arrivals from a deterministic-seed
// Poisson process at a configured offered rate and measures each
// latency from the request's *scheduled* arrival time, not its
// dispatch time — the coordinated-omission correction: when the target
// stalls, queued requests charge their wait to the latency
// distribution instead of silently stretching the schedule. Sweep runs
// the open-loop driver across a ladder of offered rates to trace the
// saturation curve.
//
// Every worker owns its clock (injectable), its RNG (Seed + worker
// index), and its per-collective HDR histograms, so a run under
// scripted clocks is byte-identical regardless of goroutine
// interleaving — the property the determinism tests pin.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
)

// Mode selects the driver.
type Mode int

const (
	// Closed issues each worker's next request when the previous one
	// completes.
	Closed Mode = iota
	// Open fires requests on a Poisson schedule at Config.RateQPS,
	// measuring latency from scheduled arrival (coordinated-omission
	// corrected).
	Open
)

func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// ParseMode parses "closed" or "open".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "closed":
		return Closed, nil
	case "open":
		return Open, nil
	}
	return 0, fmt.Errorf("loadgen: unknown mode %q (want closed or open)", s)
}

// Tenant skew distributions for multi-tenant mixes.
const (
	SkewUniform = "uniform"
	SkewZipf    = "zipf"
)

// Mix is the query distribution: collective, node count, and ppn are
// drawn uniformly from the listed values; message size is log-uniform
// over powers of two in [1, 2^MsgExpMax] — the grid shape the tuner
// itself explores, so the harness exercises every rule-table level.
// When Tenants > 1 each query also draws a tenant index, uniformly or
// Zipf-skewed (real fleets concentrate load on a few hot clusters);
// single-tenant mixes draw nothing extra, so their RNG streams — and
// therefore scripted-clock reports — are byte-identical to before the
// tenant dimension existed.
type Mix struct {
	Collectives []coll.Collective
	Nodes       []int
	PPN         []int
	MsgExpMax   int

	Tenants    int     // tenant universe size; <= 1 means single-tenant
	TenantSkew string  // "uniform" (default) or "zipf"; only with Tenants > 1
	ZipfS      float64 // zipf exponent; <= 1 means the 1.2 default
}

func (m Mix) validate() error {
	if len(m.Collectives) == 0 || len(m.Nodes) == 0 || len(m.PPN) == 0 {
		return errors.New("loadgen: Mix needs at least one collective, node count, and ppn")
	}
	for _, c := range m.Collectives {
		if c < 0 || int(c) >= coll.NumCollectives {
			return fmt.Errorf("loadgen: Mix has invalid collective %d", int(c))
		}
	}
	if m.MsgExpMax < 0 || m.MsgExpMax > 30 {
		return fmt.Errorf("loadgen: Mix.MsgExpMax %d out of range [0,30]", m.MsgExpMax)
	}
	switch m.TenantSkew {
	case "", SkewUniform, SkewZipf:
	default:
		return fmt.Errorf("loadgen: Mix.TenantSkew %q (want uniform or zipf)", m.TenantSkew)
	}
	return nil
}

// tenantCount normalizes the tenant universe size.
func (m Mix) tenantCount() int {
	if m.Tenants > 1 {
		return m.Tenants
	}
	return 1
}

// tenantDrawer returns the per-worker tenant index generator, or nil
// for single-tenant mixes (which must not consume RNG draws, to keep
// existing scripted-clock reports byte-identical).
func (m Mix) tenantDrawer(rng *rand.Rand) func() int {
	if m.Tenants <= 1 {
		return nil
	}
	if m.TenantSkew == SkewZipf {
		s := m.ZipfS
		if s <= 1 {
			s = 1.2
		}
		z := rand.NewZipf(rng, s, 1, uint64(m.Tenants-1))
		return func() int { return int(z.Uint64()) }
	}
	n := m.Tenants
	return func() int { return rng.Intn(n) }
}

// query draws one query from the mix. drawTenant is nil for
// single-tenant mixes; when set it is consumed after the shape fields,
// so the shape stream matches the single-tenant draw order.
func (m Mix) query(rng *rand.Rand, drawTenant func() int) Query {
	q := Query{
		Coll:  m.Collectives[rng.Intn(len(m.Collectives))],
		Nodes: m.Nodes[rng.Intn(len(m.Nodes))],
		PPN:   m.PPN[rng.Intn(len(m.PPN))],
		Msg:   1 << uint(rng.Intn(m.MsgExpMax+1)),
	}
	if drawTenant != nil {
		q.Tenant = drawTenant()
	}
	return q
}

// Config parameterizes one Run.
type Config struct {
	Target   Target
	Mix      Mix
	Mode     Mode
	Workers  int     // concurrent workers; <= 0 means 1
	Requests int     // total requests across workers (required)
	RateQPS  float64 // open mode: total offered rate across workers
	Seed     int64   // RNG seed; worker i uses Seed + i
	Batch    int     // queries per transport round trip; <= 1 means one (Target.Select); > 1 needs a BatchTarget

	// Clock builds worker i's clock; nil means RealClock for every
	// worker. Tests inject scripted clocks here.
	Clock func(worker int) Clock

	// Registry, when non-nil, receives live loadgen.* metrics
	// (requests/errors/misses counters and the latency HDR recorder).
	Registry *obs.Registry
}

// workerResult is one worker's private accumulation — no sharing, no
// locks; merged in worker-index order after the WaitGroup, so the
// report is independent of scheduling.
type workerResult struct {
	hist       [coll.NumCollectives]obs.HDRHistogram
	requests   [coll.NumCollectives]uint64 // completed (non-error) requests
	misses     [coll.NumCollectives]uint64
	tenantReq  []uint64 // per-tenant completed requests (nil for single-tenant mixes)
	tenantMiss []uint64
	errors     uint64
	startNs    int64
	endNs      int64
}

// regMetrics is the optional live-registry wiring, shared by workers
// (the obs types are concurrency-safe); all fields nil-safe via guards
// in the worker loop.
//
//acclaim:frozen
type regMetrics struct {
	requests *obs.Counter
	errs     *obs.Counter
	misses   *obs.Counter
	lat      *obs.HDRRecorder
}

func newRegMetrics(reg *obs.Registry) regMetrics {
	if reg == nil {
		return regMetrics{}
	}
	reg.Describe("loadgen.requests_total", "selection queries issued by the load generator")
	reg.Describe("loadgen.errors_total", "queries that failed with a transport or server error")
	reg.Describe("loadgen.misses_total", "queries no rule covered (valid answers, tracked separately)")
	reg.Describe("loadgen.latency_ns", "per-query latency; open-loop runs measure from scheduled arrival")
	return regMetrics{
		requests: reg.Counter("loadgen.requests_total"),
		errs:     reg.Counter("loadgen.errors_total"),
		misses:   reg.Counter("loadgen.misses_total"),
		lat:      reg.HDR("loadgen.latency_ns"),
	}
}

// Run executes one load-generation run and returns its report.
func Run(cfg Config) (*Report, error) {
	if cfg.Target == nil {
		return nil, errors.New("loadgen: Config.Target is required")
	}
	if cfg.Requests <= 0 {
		return nil, errors.New("loadgen: Config.Requests must be > 0")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Requests {
		cfg.Workers = cfg.Requests
	}
	if cfg.Mode == Open && cfg.RateQPS <= 0 {
		return nil, errors.New("loadgen: open-loop mode needs RateQPS > 0")
	}
	if err := cfg.Mix.validate(); err != nil {
		return nil, err
	}
	var batchTarget BatchTarget
	if cfg.Batch > 1 {
		bt, ok := cfg.Target.(BatchTarget)
		if !ok {
			return nil, fmt.Errorf("loadgen: Batch=%d but target %s cannot batch", cfg.Batch, cfg.Target.Name())
		}
		batchTarget = bt
	}
	newClock := cfg.Clock
	if newClock == nil {
		newClock = func(int) Clock { return RealClock() }
	}
	rm := newRegMetrics(cfg.Registry)

	results := make([]workerResult, cfg.Workers)
	base, extra := cfg.Requests/cfg.Workers, cfg.Requests%cfg.Workers
	rateW := cfg.RateQPS / float64(cfg.Workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		n := base
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			if batchTarget != nil {
				runBatchWorker(&results[i], cfg, batchTarget, i, n, rateW, newClock(i), rm)
			} else {
				runWorker(&results[i], cfg, i, n, rateW, newClock(i), rm)
			}
		}(i, n)
	}
	wg.Wait()
	return buildReport(cfg, results), nil
}

// runWorker is one driver loop. In open mode the next arrival is
// scheduled before dispatch and latency is completion minus *schedule*
// — a stalled target accumulates queueing delay in the distribution
// rather than slowing the arrival process (coordinated-omission
// correction). WaitUntil on a past deadline returns immediately, so a
// saturated worker fires as fast as it can while the debt is charged
// to every queued request.
func runWorker(res *workerResult, cfg Config, id, n int, rateW float64, clk Clock, rm regMetrics) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	drawTenant := cfg.Mix.tenantDrawer(rng)
	res.initTenants(cfg.Mix)
	res.startNs = clk.Now()
	next := res.startNs
	for j := 0; j < n; j++ {
		q := cfg.Mix.query(rng, drawTenant)
		var sched int64
		if cfg.Mode == Open {
			next += int64(rng.ExpFloat64() / rateW * 1e9)
			clk.WaitUntil(next)
			sched = next
		} else {
			sched = clk.Now()
		}
		_, ok, err := cfg.Target.Select(q)
		done := clk.Now()
		if rm.requests != nil {
			rm.requests.Inc()
		}
		if err != nil {
			res.errors++
			if rm.errs != nil {
				rm.errs.Inc()
			}
			continue
		}
		res.observe(q, ok, done-sched, sched, rm)
	}
	res.endNs = clk.Now()
}

// runBatchWorker is the batched driver loop: it draws cfg.Batch
// queries, fires them as one SelectBatch round trip, and charges every
// query in the batch the batch's latency (each rode the same wire
// round trip). In open mode a batch is one coalesced arrival of k
// queries: the interarrival draw uses rate rateW/k so the offered
// query rate matches the unbatched driver's.
func runBatchWorker(res *workerResult, cfg Config, bt BatchTarget, id, n int, rateW float64, clk Clock, rm regMetrics) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	drawTenant := cfg.Mix.tenantDrawer(rng)
	res.initTenants(cfg.Mix)
	qs := make([]Query, cfg.Batch)
	rs := make([]Result, cfg.Batch)
	res.startNs = clk.Now()
	next := res.startNs
	for done := 0; done < n; {
		k := cfg.Batch
		if n-done < k {
			k = n - done
		}
		done += k
		for i := 0; i < k; i++ {
			qs[i] = cfg.Mix.query(rng, drawTenant)
		}
		var sched int64
		if cfg.Mode == Open {
			next += int64(rng.ExpFloat64() / (rateW / float64(k)) * 1e9)
			clk.WaitUntil(next)
			sched = next
		} else {
			sched = clk.Now()
		}
		err := bt.SelectBatch(qs[:k], rs[:k])
		end := clk.Now()
		if rm.requests != nil {
			rm.requests.Add(uint64(k))
		}
		if err != nil {
			res.errors += uint64(k)
			if rm.errs != nil {
				rm.errs.Add(uint64(k))
			}
			continue
		}
		lat := end - sched
		for i := 0; i < k; i++ {
			res.observe(qs[i], rs[i].OK, lat, sched, rm)
		}
	}
	res.endNs = clk.Now()
}

// initTenants sizes the per-tenant counters for multi-tenant mixes.
func (res *workerResult) initTenants(m Mix) {
	if m.Tenants > 1 {
		res.tenantReq = make([]uint64, m.Tenants)
		res.tenantMiss = make([]uint64, m.Tenants)
	}
}

// observe records one completed (non-error) query.
func (res *workerResult) observe(q Query, ok bool, lat, sched int64, rm regMetrics) {
	s := int(q.Coll)
	res.requests[s]++
	if res.tenantReq != nil {
		res.tenantReq[q.Tenant]++
	}
	if !ok {
		res.misses[s]++
		if res.tenantMiss != nil {
			res.tenantMiss[q.Tenant]++
		}
		if rm.misses != nil {
			rm.misses.Inc()
		}
	}
	res.hist[s].ObserveNs(lat)
	rm.lat.Record(sched, lat)
}

// buildReport merges worker results in index order.
func buildReport(cfg Config, results []workerResult) *Report {
	var perColl [coll.NumCollectives]obs.HDRSnapshot
	var reqs, miss [coll.NumCollectives]uint64
	var errs uint64
	minStart, maxEnd := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range results {
		r := &results[i]
		errs += r.errors
		if r.startNs < minStart {
			minStart = r.startNs
		}
		if r.endNs > maxEnd {
			maxEnd = r.endNs
		}
		for c := 0; c < coll.NumCollectives; c++ {
			reqs[c] += r.requests[c]
			miss[c] += r.misses[c]
			if r.requests[c] > 0 {
				perColl[c] = perColl[c].Merge(r.hist[c].Snapshot())
			}
		}
	}

	var overall obs.HDRSnapshot
	var completed, missed uint64
	rep := &Report{
		Schema:  ReportSchema,
		Mode:    cfg.Mode.String(),
		Target:  cfg.Target.Name(),
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Errors:  errs,
	}
	if cfg.Batch > 1 {
		rep.Batch = cfg.Batch
	}
	if cfg.Mix.Tenants > 1 {
		rep.Tenants = cfg.Mix.Tenants
		rep.TenantSkew = cfg.Mix.TenantSkew
		if rep.TenantSkew == "" {
			rep.TenantSkew = SkewUniform
		}
		tReq := make([]uint64, cfg.Mix.Tenants)
		tMiss := make([]uint64, cfg.Mix.Tenants)
		for i := range results {
			for t, v := range results[i].tenantReq {
				tReq[t] += v
			}
			for t, v := range results[i].tenantMiss {
				tMiss[t] += v
			}
		}
		for t := 0; t < cfg.Mix.Tenants; t++ {
			rep.PerTenant = append(rep.PerTenant, TenantReport{
				Tenant: t, Requests: tReq[t], Misses: tMiss[t],
			})
		}
	}
	for c := 0; c < coll.NumCollectives; c++ {
		if reqs[c] == 0 {
			continue
		}
		completed += reqs[c]
		missed += miss[c]
		overall = overall.Merge(perColl[c])
		rep.PerCollective = append(rep.PerCollective, CollReport{
			Collective: coll.Collective(c).String(),
			Requests:   reqs[c],
			Misses:     miss[c],
			P50Ns:      perColl[c].P50,
			P99Ns:      perColl[c].P99,
			P999Ns:     perColl[c].P999,
		})
	}
	rep.Requests = completed + errs
	rep.Misses = missed
	dur := maxEnd - minStart
	if dur <= 0 {
		dur = 1
	}
	rep.DurationNs = dur
	rep.ThroughputQPS = float64(completed) / (float64(dur) / 1e9)
	if cfg.Mode == Open {
		rep.OfferedQPS = cfg.RateQPS
	}
	rep.Latency = LatencySummary{
		P50Ns:  overall.P50,
		P90Ns:  overall.P90,
		P99Ns:  overall.P99,
		P999Ns: overall.P999,
		MaxNs:  overall.Max,
	}
	if overall.Count > 0 {
		rep.Latency.MeanNs = overall.Sum / float64(overall.Count)
	}
	return rep
}

// Sweep runs the open-loop driver once per offered rate (ascending
// order is conventional but not required) and returns the last run's
// report carrying the full saturation curve in its Sweep field — the
// table EXPERIMENTS.md reproduces.
func Sweep(cfg Config, rates []float64) (*Report, error) {
	if len(rates) == 0 {
		return nil, errors.New("loadgen: Sweep needs at least one rate")
	}
	cfg.Mode = Open
	var points []SweepPoint
	var last *Report
	for _, r := range rates {
		c := cfg
		c.RateQPS = r
		rep, err := Run(c)
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{
			OfferedQPS:  r,
			AchievedQPS: rep.ThroughputQPS,
			P50Ns:       rep.Latency.P50Ns,
			P99Ns:       rep.Latency.P99Ns,
			P999Ns:      rep.Latency.P999Ns,
			Errors:      rep.Errors,
		})
		last = rep
	}
	last.Sweep = points
	return last, nil
}
