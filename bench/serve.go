package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// serveShape is what distinguishes the three serving workloads.
type serveShape struct {
	frame   int  // queries per request frame
	clients int  // closed-loop connections, each waiting for its reply
	tenants int  // rule tables the registry holds
	reload  bool // one more goroutine reloads tenants on a fixed schedule
}

var serveShapes = map[string]serveShape{
	// nproc connections: every load thread has a core's worth of demand.
	"serve_batch":  {frame: 64, clients: 2, tenants: 1},
	"serve_single": {frame: 1, clients: 2, tenants: 1},
	// One client plus the reloader: still two load threads.
	"serve_reload": {frame: 64, clients: 1, tenants: 8, reload: true},
}

const (
	poolQueries  = 1 << 16              // generated queries per connection, cycled through
	nonP2Share   = 0.16                 // share of non-P2 message sizes: the paper's Figure 4
	zipfS        = 1.2                  // tenant skew of serve_reload
	reloadPeriod = 2 * time.Millisecond // the reload schedule; a Load of these fixtures takes 0.6 ms
	serveWarmup  = 1 * time.Second      // discarded before the first window
	quickWarmup  = 100 * time.Millisecond
	serveWindows = 10 // the timed section is cut into windows; medians are over windows
)

// pooled is one generated query with the answers the two fixtures give,
// computed by the nested rules.Table.Select walk: the oracle is not the
// code under test.
type pooled struct {
	wantA, wantB string
}

// queryPool is one connection's seeded input.
type queryPool struct {
	qs   []ruleserver.WireQuery
	want []pooled
}

// genPool draws the serving mix: all eight tables, nodes 2-64 and ppn
// 1-8 including non-P2 values, message sizes log-uniform up to 1 MiB of
// which nonP2Share are not powers of two, tenants zipf-distributed.
func genPool(rng *rand.Rand, n, tenants int, a, b *rules.File) (*queryPool, error) {
	p := &queryPool{qs: make([]ruleserver.WireQuery, n), want: make([]pooled, n)}
	var zipf *rand.Zipf
	if tenants > 1 {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(tenants-1))
	}
	colls := coll.Collectives()
	for i := range p.qs {
		q := ruleserver.WireQuery{
			Coll:  colls[rng.Intn(len(colls))],
			Nodes: 2 + rng.Intn(63),
			PPN:   1 + rng.Intn(8),
			Msg:   8 << rng.Intn(18),
		}
		if zipf != nil {
			q.Tenant = int(zipf.Uint64())
		}
		if rng.Float64() < nonP2Share {
			for featspace.IsP2(q.Msg) {
				q.Msg = int(math.Exp(math.Log(8) + rng.Float64()*math.Log(maxMsg/8)))
			}
		}
		var err error
		w := &p.want[i]
		if w.wantA, err = a.Tables[q.Coll.String()].Select(q.Nodes, q.PPN, q.Msg); err != nil {
			return nil, err
		}
		if w.wantB, err = b.Tables[q.Coll.String()].Select(q.Nodes, q.PPN, q.Msg); err != nil {
			return nil, err
		}
		p.qs[i] = q
	}
	return p, nil
}

// served is everything set-up builds and teardown stops.
type served struct {
	shape   serveShape
	pathA   string
	pathB   string
	keys    []ruleserver.TenantKey
	last    []string // per tenant: the fixture path loaded last; the reloader owns it while it runs
	reg     *ruleserver.Registry
	ws      *ruleserver.WireServer
	metrics *obs.Registry
	ln      net.Listener
	served  chan error // closed listener: Serve's return value arrives here
	clients []*ruleserver.WireClient
	pools   []*queryPool
	genNs   float64 // generator cost per query, measured while the pools were built
}

// setupServe loads the fixtures, generates each connection's queries
// with their expected answers, fills the registry, and opens the
// listener and the connections. Traffic crosses the host loopback.
func setupServe(shape serveShape, seed int64, testdata string) (*served, error) {
	if testdata == "" {
		var err error
		if testdata, err = findTestdata(); err != nil {
			return nil, err
		}
	}
	s := &served{shape: shape,
		pathA: filepath.Join(testdata, "rules_a.json"),
		pathB: filepath.Join(testdata, "rules_b.json")}
	fileA, err := rules.ReadFile(s.pathA)
	if err != nil {
		return nil, err
	}
	fileB, err := rules.ReadFile(s.pathB)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	for c := 0; c < shape.clients; c++ {
		pool, err := genPool(rand.New(rand.NewSource(seed*31+int64(c))), poolQueries, shape.tenants, fileA, fileB)
		if err != nil {
			return nil, err
		}
		s.pools = append(s.pools, pool)
	}
	s.genNs = float64(time.Since(t0)) / float64(shape.clients*poolQueries)

	s.reg = ruleserver.NewRegistry()
	for t := 0; t < shape.tenants; t++ {
		key := ruleserver.TenantKey{Cluster: "theta-sim", JobClass: fmt.Sprintf("class%d", t), MPIVer: "mpich-4"}
		s.keys = append(s.keys, key)
		s.last = append(s.last, s.pathA)
		if err := s.reg.Load(key, s.pathA); err != nil {
			return nil, err
		}
	}
	s.ws = ruleserver.NewWireServer(s.reg)
	s.metrics = obs.NewRegistry()
	s.ws.Register(s.metrics)
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.served = make(chan error, 1)
	//acclaim:goroutine-owner served.close closes the listener, which ends Serve, and receives its return value
	go func() { s.served <- s.ws.Serve(s.ln) }()
	for c := 0; c < shape.clients; c++ {
		cl, err := ruleserver.DialWire(s.ln.Addr().String(), s.keys)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// close stops the clients and the server and waits for Serve to
// return. Connection handlers end when their peer closes.
func (s *served) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.ln.Close()
	<-s.served
}

// wireQueries reads the wire server's own query counter.
func (s *served) wireQueries() float64 {
	v, _ := s.metrics.Snapshot()["wire.queries_total"].(float64)
	return v
}

// connStats is what one closed-loop connection measured.
type connStats struct {
	rttNs    []uint32 // one per timed frame
	winEnd   []int    // rttNs[winEnd[w-1]:winEnd[w]] fell in window w
	frames   int      // including warm-up
	queries  int
	wrong    int
	dropped  int // reload ticks that found the reloader busy
	firstErr error
}

// driveConn is the closed loop: pick the next frame of the pool, send
// it, wait for the reply, compare every answer with the oracle, repeat.
// Frames before start are warm-up; the timed section is cut into equal
// windows. It is the whole load harness, so a change to
// internal/loadgen cannot read as a server gain.
func driveConn(cl *ruleserver.WireClient, pool *queryPool, shape serveShape, l *lane,
	start time.Time, window time.Duration, windows int, tick chan<- struct{}, st *connStats) {

	res := make([]ruleserver.WireResult, shape.frame)
	end := start.Add(time.Duration(windows) * window)
	off := 0
	nextTick := start
	now := time.Now()
	for now.Before(end) {
		root := l.begin("frame")
		sp := l.begin("gen")
		if off+shape.frame > len(pool.qs) {
			off = 0
		}
		qs, want := pool.qs[off:off+shape.frame], pool.want[off:off+shape.frame]
		off += shape.frame
		l.EndSpan(sp)

		sp = l.begin("wire.rtt")
		t0 := time.Now()
		err := cl.LookupBatch(qs, res)
		t1 := time.Now()
		l.EndSpan(sp)
		if err != nil {
			st.firstErr = err
			return
		}

		sp = l.begin("check")
		for i := range qs {
			// Under reload a tenant serves A or B; anything else is wrong.
			if got := res[i]; !got.OK || (got.Alg != want[i].wantA && (!shape.reload || got.Alg != want[i].wantB)) {
				st.wrong++
			}
		}
		l.EndSpan(sp)
		st.frames++
		st.queries += len(qs)
		if !t0.Before(start) {
			for w := int(t0.Sub(start) / window); len(st.winEnd) < w; {
				st.winEnd = append(st.winEnd, len(st.rttNs))
			}
			st.rttNs = append(st.rttNs, uint32(t1.Sub(t0)))
		}
		if tick != nil && !t1.Before(nextTick) {
			select {
			case tick <- struct{}{}:
			default:
				st.dropped++
			}
			nextTick = nextTick.Add((t1.Sub(nextTick)/reloadPeriod + 1) * reloadPeriod)
		}
		l.EndSpan(root)
		now = t1
	}
	for len(st.winEnd) < windows {
		st.winEnd = append(st.winEnd, len(st.rttNs))
	}
}

// reloader calls Registry.Load once per tick, round-robin over the
// tenants, alternating the two fixtures on disk, until stop closes.
//
// The ticks come from the connection's loop, which compares the clock
// with a fixed reloadPeriod schedule after every frame, and not from a
// timer: with both cores busy this host wakes a sleeping goroutine 10 to
// 80 ms late, so a timer-driven reloader would load a tenth as often as
// asked, and differently on every run. A channel wake-up runs as soon as
// the sender blocks on its socket. The schedule stays fixed in time: a
// slow load does not push later ones back, and a tick that finds the
// previous load still running is dropped and counted, not queued.
type reloader struct {
	loadMs []float64
	fails  int
}

func (rl *reloader) run(s *served, l *lane, start time.Time, tick <-chan struct{}, stop <-chan struct{}) {
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-tick:
		}
		t := k % len(s.keys)
		path := s.pathB
		if s.last[t] == s.pathB {
			path = s.pathA
		}
		sp := l.begin("reload")
		t0 := time.Now()
		err := s.reg.Load(s.keys[t], path)
		d := time.Since(t0)
		l.EndSpan(sp)
		if err != nil {
			rl.fails++
			continue
		}
		s.last[t] = path
		if !t0.Before(start) {
			rl.loadMs = append(rl.loadMs, 1e3*d.Seconds())
		}
	}
}

// phaseStats is one measured section (untraced or traced).
type phaseStats struct {
	qps, midUs, p99us []float64 // one per window
	rttNs             []uint32  // every timed RTT, window by window
	frames, queries   int
	wrong             int
	dropped           int // reload ticks dropped because the previous load was still running
	reloads           *reloader
}

// measure runs every connection (and the reloader) for a warm-up plus
// `windows` windows and reduces the samples per window.
func (s *served) measure(warmup, window time.Duration, windows int, lanes []*lane) (*phaseStats, error) {
	start := time.Now().Add(warmup)
	stats := make([]connStats, len(s.clients))
	var conns, rel sync.WaitGroup
	var tick chan struct{}
	if s.shape.reload {
		tick = make(chan struct{})
	}
	for c := range s.clients {
		stats[c].rttNs = make([]uint32, 0, 1<<20)
		conns.Add(1)
		go func(c int) {
			defer conns.Done()
			var l *lane
			if lanes != nil {
				l = lanes[c]
			}
			var t chan<- struct{}
			if c == 0 {
				t = tick // the first connection keeps the reload schedule
			}
			driveConn(s.clients[c], s.pools[c], s.shape, l, start, window, windows, t, &stats[c])
		}(c)
	}
	ph := &phaseStats{}
	stop := make(chan struct{})
	if s.shape.reload {
		ph.reloads = &reloader{}
		var l *lane
		if lanes != nil {
			l = lanes[len(s.clients)]
		}
		rel.Add(1)
		go func() {
			defer rel.Done()
			ph.reloads.run(s, l, start, tick, stop)
		}()
	}
	// The connections stop at the deadline by themselves; the reloader
	// keeps loading beside them until they are done.
	conns.Wait()
	close(stop)
	rel.Wait()

	// Merge the connections' samples window by window into one buffer;
	// each window's part is then sorted in place for its percentiles.
	total := 0
	for c := range stats {
		if err := stats[c].firstErr; err != nil {
			return nil, fmt.Errorf("connection %d: %w", c, err)
		}
		total += len(stats[c].rttNs)
	}
	ph.rttNs = make([]uint32, 0, total)
	for w := 0; w < windows; w++ {
		lo := len(ph.rttNs)
		for c := range stats {
			st := &stats[c]
			from := 0
			if w > 0 {
				from = st.winEnd[w-1]
			}
			ph.rttNs = append(ph.rttNs, st.rttNs[from:st.winEnd[w]]...)
		}
		win := ph.rttNs[lo:]
		if len(win) == 0 {
			return nil, errors.New("a window completed no frame")
		}
		slices.Sort(win)
		ph.qps = append(ph.qps, float64(len(win)*s.shape.frame)/window.Seconds())
		ph.midUs = append(ph.midUs, midmean(win)/1e3)
		ph.p99us = append(ph.p99us, float64(win[rank(len(win), 0.99)])/1e3)
	}
	for c := range stats {
		ph.frames += stats[c].frames
		ph.queries += stats[c].queries
		ph.wrong += stats[c].wrong
		ph.dropped += stats[c].dropped
	}
	return ph, nil
}

// runServe drives a serving workload.
func runServe(cfg runCfg, r *result) error {
	shape := serveShapes[cfg.workload]
	var s *served
	setup, err := medianSetup(cfg.setups(), func() (func(), error) {
		var err error
		s, err = setupServe(shape, cfg.seed, cfg.testdata)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer s.close()
	r.vals["setup_s"] = setup

	warmup := serveWarmup
	if cfg.quick {
		warmup = quickWarmup
	}
	// A traced run spends half its time untraced and half traced, so
	// the two can be compared and the run is no longer than a plain one.
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		total /= 2
	}
	window := total / serveWindows
	plain, err := s.measure(warmup, window, serveWindows, nil)
	if err != nil {
		return err
	}
	sent := plain.queries
	r.attempted += plain.queries
	r.failed += plain.wrong
	fmt.Fprintf(os.Stderr, "%s: closed loop, %d connection(s) x %d-query frames, %d tenant(s), reload=%v; %d frames, %d RTT samples in %d windows of %v\n",
		cfg.workload, shape.clients, shape.frame, shape.tenants, shape.reload, plain.frames, len(plain.rttNs), serveWindows, window)

	fmt.Fprintf(os.Stderr, "per window: kqps %.0f\n            mid us %.1f\n            p99 us %.1f\n", scaled(plain.qps, 1e-3), plain.midUs, plain.p99us)
	r.vals["op_mid_ms"] = median(plain.midUs) / 1e3
	r.vals["op_p99_ms"] = median(plain.p99us) / 1e3
	r.vals["ops_per_s"] = median(plain.qps)

	var traced *phaseStats
	var lanes []*lane
	if cfg.trace {
		epoch := time.Now()
		for i := 0; i < shape.clients+1; i++ {
			lanes = append(lanes, newLane(epoch, 1<<22))
			lanes[i].ctx = int32(i)
		}
		if traced, err = s.measure(warmup, window, serveWindows, lanes); err != nil {
			return err
		}
		sent += traced.queries
		r.attempted += traced.queries
		r.failed += traced.wrong
	}

	// Quiesce: the reloader has stopped, so every tenant must now answer
	// from the file it loaded last.
	if shape.reload {
		n, wrong, err := s.checkQuiesced()
		if err != nil {
			return err
		}
		sent += n
		r.attempted += n
		r.failed += wrong
		fails := plain.reloads.fails
		if traced != nil {
			fails += traced.reloads.fails
		}
		r.check(fails == 0, "%d reloads failed", fails)
	}

	// The server must have counted exactly the queries the clients sent;
	// where no reload reset the per-snapshot ledger, so must the registry.
	st := s.reg.Stats()
	r.check(s.wireQueries() == float64(sent), "wire server counted %v queries, clients sent %d", s.wireQueries(), sent)
	if !shape.reload {
		r.check(st.Lookups == uint64(sent), "registry counted %d lookups, clients sent %d", st.Lookups, sent)
	}
	r.check(st.Misses == 0, "registry counted %d misses on complete tables", st.Misses)
	// 1 + the share of wrong answers: 1 exactly on a correct run.
	r.vals["quality_ratio"] = 1 + float64(r.failed)/float64(r.attempted)

	if !cfg.trace {
		return nil
	}
	r.vals["bench.gen_ns_per_query"] = s.genNs
	r.vals["bench.warmup_s"] = warmup.Seconds()
	r.vals["bench.rtt_samples"] = float64(len(plain.rttNs))
	slices.Sort(plain.rttNs)
	r.vals["bench.rtt_p999_us"] = float64(plain.rttNs[rank(len(plain.rttNs), 0.999)]) / 1e3
	r.vals["bench.trace_overhead_share"] = median(traced.midUs)/median(plain.midUs) - 1
	r.vals["ruleserver.wire_frames"] = float64(plain.frames + traced.frames)
	r.vals["ruleserver.wire_queries"] = s.wireQueries()
	r.vals["ruleserver.lookups_total"] = float64(st.Lookups)
	r.vals["ruleserver.misses_total"] = float64(st.Misses)
	// Computed from the frame layout of wire.go: a 4-byte length prefix
	// on each frame, 5 + 20n request bytes, 9 + 4n response bytes.
	n := float64(shape.frame)
	r.vals["ruleserver.wire_bytes_per_query"] = (4 + 5 + 20*n + 4 + 9 + 4*n) / n
	if shape.reload {
		r.vals["ruleserver.reloads"] = float64(len(plain.reloads.loadMs) + len(traced.reloads.loadMs))
		r.vals["ruleserver.reload_fail"] = float64(plain.reloads.fails + traced.reloads.fails)
		r.vals["ruleserver.reload_dropped"] = float64(plain.dropped + traced.dropped)
		r.vals["ruleserver.reload_p50_ms"] = median(plain.reloads.loadMs)
	}

	// Ledger: per connection, the frame spans tile the traced section.
	rows, spans, dropped := ledger(lanes)
	t := totals(rows)
	covered := t["frame"].total
	share := func(name string) float64 { return float64(t[name].self) / float64(covered) }
	r.vals["bench.gen_share"] = share("gen")
	r.vals["bench.rtt_share"] = share("wire.rtt")
	r.vals["bench.check_share"] = share("check")
	timed := time.Duration(shape.clients) * (warmup + serveWindows*window)
	r.vals["bench.ledger_residual_share"] = 1 - float64(t["gen"].self+t["wire.rtt"].self+t["check"].self)/float64(timed)
	r.vals["bench.spans"] = float64(spans)
	r.vals["bench.ops_traced"] = float64(traced.frames)
	r.check(dropped == 0, "%d spans dropped: the lanes are too small for this run", dropped)
	printLedger(cfg.workload, rows, covered+t["reload"].total)
	if err := writeSpans(cfg.spanFile(), lanes); err != nil {
		return err
	}
	return probeServe(s, r.vals)
}

// checkQuiesced asks every tenant a frame of queries and compares the
// answers with the fixture the reloader loaded last.
func (s *served) checkQuiesced() (queries, wrong int, err error) {
	pool := s.pools[0]
	qs := make([]ruleserver.WireQuery, 64)
	res := make([]ruleserver.WireResult, len(qs))
	for t := range s.keys {
		copy(qs, pool.qs[:len(qs)])
		for i := range qs {
			qs[i].Tenant = t
		}
		if err := s.clients[0].LookupBatch(qs, res); err != nil {
			return 0, 0, err
		}
		for i := range qs {
			want := pool.want[i].wantA
			if s.last[t] == s.pathB {
				want = pool.want[i].wantB
			}
			if !res[i].OK || res[i].Alg != want {
				wrong++
			}
		}
		queries += len(qs)
	}
	return queries, wrong, nil
}
