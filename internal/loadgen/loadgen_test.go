package loadgen_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/loadgen"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// loadgenFixtureFile covers bcast (two message bands) and allreduce
// (one rule); every other collective misses.
func loadgenFixtureFile() *rules.File {
	f := rules.NewFile("loadgen-fixture")
	f.Tables[coll.Bcast.String()] = &rules.Table{
		Collective: coll.Bcast.String(),
		Buckets: []rules.NodeBucket{{MaxNodes: rules.Unbounded, PPNs: []rules.PPNBucket{
			{MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{
				{MaxMsg: 4096, Alg: "binomial"},
				{MaxMsg: rules.Unbounded, Alg: "scatter_ring_allgather"},
			}},
		}}},
	}
	f.Tables[coll.Allreduce.String()] = &rules.Table{
		Collective: coll.Allreduce.String(),
		Buckets: []rules.NodeBucket{{MaxNodes: rules.Unbounded, PPNs: []rules.PPNBucket{
			{MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{
				{MaxMsg: rules.Unbounded, Alg: "recursive_doubling"},
			}},
		}}},
	}
	return f
}

func fixtureServer(t *testing.T) *ruleserver.Server {
	t.Helper()
	srv, err := ruleserver.NewFromFile(loadgenFixtureFile())
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// scriptClock is a virtual-time clock: Now advances by a fixed step
// per read, WaitUntil jumps forward (never back). One instance per
// worker makes runs independent of goroutine interleaving.
type scriptClock struct{ t, step int64 }

func (c *scriptClock) Now() int64 { c.t += c.step; return c.t }
func (c *scriptClock) WaitUntil(ns int64) {
	if ns > c.t {
		c.t = ns
	}
}

func testMix() loadgen.Mix {
	return loadgen.Mix{
		// Gather has no table in the fixture, so roughly a third of
		// the queries are misses.
		Collectives: []coll.Collective{coll.Bcast, coll.Allreduce, coll.Gather},
		Nodes:       []int{2, 4, 16},
		PPN:         []int{1, 8},
		MsgExpMax:   16,
	}
}

// TestRunDeterministic pins the harness's core contract: with scripted
// per-worker clocks, two identical runs produce byte-identical reports
// in both modes, regardless of scheduling.
func TestRunDeterministic(t *testing.T) {
	srv := fixtureServer(t)
	for _, mode := range []loadgen.Mode{loadgen.Closed, loadgen.Open} {
		cfg := loadgen.Config{
			Target:   loadgen.ServerTarget{Server: srv},
			Mix:      testMix(),
			Mode:     mode,
			Workers:  3,
			Requests: 1000,
			RateQPS:  500000,
			Seed:     42,
			Clock:    func(i int) loadgen.Clock { return &scriptClock{t: int64(i) * 1000, step: 13} },
		}
		var out [2]bytes.Buffer
		for round := 0; round < 2; round++ {
			rep, err := loadgen.Run(cfg)
			if err != nil {
				t.Fatalf("%v run %d: %v", mode, round, err)
			}
			if err := rep.WriteJSON(&out[round]); err != nil {
				t.Fatal(err)
			}
			if rep.Requests != 1000 || rep.Errors != 0 {
				t.Fatalf("%v: requests %d errors %d, want 1000/0", mode, rep.Requests, rep.Errors)
			}
			if rep.Misses == 0 {
				t.Fatalf("%v: want misses from the uncovered gather slice", mode)
			}
			if len(rep.PerCollective) != 3 {
				t.Fatalf("%v: per_collective has %d entries, want 3", mode, len(rep.PerCollective))
			}
			for _, cr := range rep.PerCollective {
				if cr.Collective == coll.Gather.String() && cr.Misses != cr.Requests {
					t.Fatalf("%v: gather misses %d of %d, want all", mode, cr.Misses, cr.Requests)
				}
			}
			if rep.Latency.P50Ns <= 0 || rep.Latency.P99Ns < rep.Latency.P50Ns {
				t.Fatalf("%v: bad quantiles %+v", mode, rep.Latency)
			}
			if rep.Mode != mode.String() || rep.Schema != loadgen.ReportSchema || rep.Target != "inproc" {
				t.Fatalf("%v: bad header fields %q %q %q", mode, rep.Mode, rep.Schema, rep.Target)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Fatalf("%v: reports differ between identical runs:\n%s\n----\n%s", mode, out[0].String(), out[1].String())
		}
	}
}

// slowTarget simulates a fixed service time by advancing the worker's
// virtual clock. Only valid with Workers=1 (it holds that worker's
// clock).
type slowTarget struct {
	clk       *scriptClock
	serviceNs int64
}

func (s *slowTarget) Select(loadgen.Query) (string, bool, error) {
	s.clk.t += s.serviceNs
	return "binomial", true, nil
}
func (s *slowTarget) Name() string { return "slow" }

// TestOpenLoopCoordinatedOmission: a 2000ns-service target offered
// 1M qps (1000ns mean interarrival) is saturated. The closed-loop
// driver sees only the service time; the CO-corrected open-loop driver
// must charge the growing queue to the latency distribution, so its
// p99 is orders of magnitude above the service time.
func TestOpenLoopCoordinatedOmission(t *testing.T) {
	run := func(mode loadgen.Mode) *loadgen.Report {
		clk := &scriptClock{}
		cfg := loadgen.Config{
			Target:   &slowTarget{clk: clk, serviceNs: 2000},
			Mix:      testMix(),
			Mode:     mode,
			Workers:  1,
			Requests: 2000,
			RateQPS:  1e6,
			Seed:     7,
			Clock:    func(int) loadgen.Clock { return clk },
		}
		rep, err := loadgen.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	closed := run(loadgen.Closed)
	open := run(loadgen.Open)
	// 2000ns lands in a 32-wide bucket; the closed-loop p99 is the
	// bucket upper bound, comfortably under 2100.
	if closed.Latency.P99Ns > 2100 {
		t.Fatalf("closed p99 %.0f, want ~service time 2000", closed.Latency.P99Ns)
	}
	if open.Latency.P99Ns < 50*closed.Latency.P99Ns {
		t.Fatalf("open p99 %.0f vs closed %.0f: coordinated-omission correction missing",
			open.Latency.P99Ns, closed.Latency.P99Ns)
	}
	if open.ThroughputQPS >= open.OfferedQPS {
		t.Fatalf("achieved %.0f >= offered %.0f on a saturated target", open.ThroughputQPS, open.OfferedQPS)
	}
}

// TestHTTPTarget drives the same handler acclaim-serve -http mounts,
// over a real loopback connection.
func TestHTTPTarget(t *testing.T) {
	srv := fixtureServer(t)
	ts := httptest.NewServer(ruleserver.SelectHandler(srv))
	defer ts.Close()

	tgt := loadgen.HTTPTarget{URL: ts.URL, Client: ts.Client()}
	if alg, ok, err := tgt.Select(loadgen.Query{Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 64}); err != nil || !ok || alg != "binomial" {
		t.Fatalf("Select = %q %v %v, want binomial true nil", alg, ok, err)
	}
	if _, ok, err := tgt.Select(loadgen.Query{Coll: coll.Scatter, Nodes: 4, PPN: 8, Msg: 64}); err != nil || ok {
		t.Fatalf("uncovered collective: ok=%v err=%v, want miss with no error", ok, err)
	}

	rep, err := loadgen.Run(loadgen.Config{
		Target:   tgt,
		Mix:      testMix(),
		Workers:  2,
		Requests: 200,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 200 || rep.Errors != 0 {
		t.Fatalf("requests %d errors %d, want 200/0", rep.Requests, rep.Errors)
	}
	if rep.Misses == 0 || rep.ThroughputQPS <= 0 || rep.Latency.P50Ns <= 0 {
		t.Fatalf("implausible HTTP report: %+v", rep)
	}

	// Transport errors and non-200s count as errors, not latencies.
	bad := loadgen.HTTPTarget{URL: "http://127.0.0.1:1/nope"}
	if _, _, err := bad.Select(loadgen.Query{Coll: coll.Bcast, Nodes: 2, PPN: 1, Msg: 8}); err == nil {
		t.Fatal("want transport error from unreachable target")
	}
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer boom.Close()
	rep, err = loadgen.Run(loadgen.Config{
		Target:   loadgen.HTTPTarget{URL: boom.URL},
		Mix:      testMix(),
		Workers:  1,
		Requests: 10,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 10 || rep.ThroughputQPS != 0 || rep.Latency.P99Ns != 0 {
		t.Fatalf("all-error run: errors %d qps %.0f p99 %.0f, want 10/0/0", rep.Errors, rep.ThroughputQPS, rep.Latency.P99Ns)
	}
}

// TestSweep checks the saturation-curve plumbing: one point per rate,
// offered rates echoed, and deterministic bytes under scripted clocks.
func TestSweep(t *testing.T) {
	srv := fixtureServer(t)
	cfg := loadgen.Config{
		Target:   loadgen.ServerTarget{Server: srv},
		Mix:      testMix(),
		Workers:  2,
		Requests: 400,
		Seed:     42,
		Clock:    func(i int) loadgen.Clock { return &scriptClock{t: int64(i) * 100, step: 11} },
	}
	rates := []float64{100000, 200000, 400000}
	var out [2]bytes.Buffer
	for round := 0; round < 2; round++ {
		rep, err := loadgen.Sweep(cfg, rates)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Sweep) != len(rates) {
			t.Fatalf("sweep has %d points, want %d", len(rep.Sweep), len(rates))
		}
		for i, p := range rep.Sweep {
			if p.OfferedQPS != rates[i] {
				t.Fatalf("point %d offered %.0f, want %.0f", i, p.OfferedQPS, rates[i])
			}
			if p.AchievedQPS <= 0 || p.P99Ns <= 0 {
				t.Fatalf("point %d implausible: %+v", i, p)
			}
		}
		if rep.Mode != "open" || rep.OfferedQPS != rates[len(rates)-1] {
			t.Fatalf("last report mode %q offered %.0f", rep.Mode, rep.OfferedQPS)
		}
		if err := rep.WriteJSON(&out[round]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("sweep reports differ between identical runs")
	}
	if _, err := loadgen.Sweep(cfg, nil); err == nil {
		t.Fatal("want error for empty rate ladder")
	}
}

// TestRegistryMetrics checks the live loadgen.* wiring.
func TestRegistryMetrics(t *testing.T) {
	srv := fixtureServer(t)
	reg := obs.NewRegistry()
	rep, err := loadgen.Run(loadgen.Config{
		Target:   loadgen.ServerTarget{Server: srv},
		Mix:      testMix(),
		Workers:  2,
		Requests: 500,
		Seed:     3,
		Clock:    func(i int) loadgen.Clock { return &scriptClock{t: int64(i), step: 9} },
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("loadgen.requests_total").Load(); got != rep.Requests {
		t.Fatalf("loadgen.requests_total = %d, want %d", got, rep.Requests)
	}
	if got := reg.Counter("loadgen.misses_total").Load(); got != rep.Misses {
		t.Fatalf("loadgen.misses_total = %d, want %d", got, rep.Misses)
	}
	if got := reg.Counter("loadgen.errors_total").Load(); got != 0 {
		t.Fatalf("loadgen.errors_total = %d, want 0", got)
	}
	lat := reg.HDR("loadgen.latency_ns")
	if lat.Count() != rep.Requests-rep.Errors {
		t.Fatalf("latency HDR holds %d samples, want %d", lat.Count(), rep.Requests-rep.Errors)
	}
}

func TestConfigValidation(t *testing.T) {
	srv := fixtureServer(t)
	tgt := loadgen.ServerTarget{Server: srv}
	cases := []struct {
		name string
		cfg  loadgen.Config
	}{
		{"nil target", loadgen.Config{Mix: testMix(), Requests: 10}},
		{"no requests", loadgen.Config{Target: tgt, Mix: testMix()}},
		{"open without rate", loadgen.Config{Target: tgt, Mix: testMix(), Requests: 10, Mode: loadgen.Open}},
		{"empty mix", loadgen.Config{Target: tgt, Requests: 10}},
		{"bad collective", loadgen.Config{Target: tgt, Requests: 10, Mix: loadgen.Mix{
			Collectives: []coll.Collective{coll.Collective(99)}, Nodes: []int{2}, PPN: []int{1}, MsgExpMax: 4}}},
		{"msg exp out of range", loadgen.Config{Target: tgt, Requests: 10, Mix: loadgen.Mix{
			Collectives: []coll.Collective{coll.Bcast}, Nodes: []int{2}, PPN: []int{1}, MsgExpMax: 40}}},
	}
	for _, tc := range cases {
		if _, err := loadgen.Run(tc.cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]loadgen.Mode{"closed": loadgen.Closed, "open": loadgen.Open} {
		m, err := loadgen.ParseMode(s)
		if err != nil || m != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, m, err)
		}
		if m.String() != s {
			t.Fatalf("Mode.String() = %q, want %q", m.String(), s)
		}
	}
	if _, err := loadgen.ParseMode("burst"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

func TestWriteBench(t *testing.T) {
	srv := fixtureServer(t)
	rep, err := loadgen.Run(loadgen.Config{
		Target:   loadgen.ServerTarget{Server: srv},
		Mix:      testMix(),
		Workers:  1,
		Requests: 100,
		Seed:     1,
		Clock:    func(int) loadgen.Clock { return &scriptClock{step: 10} },
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteBenchPrefixed(&buf, "LoadSmoke", ""); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	fields := strings.Fields(line)
	// benchguard's parser wants: name, iterations, then (value, unit)
	// pairs — exactly what `go test -bench` emits.
	if len(fields) != 8 || fields[0] != "BenchmarkLoadSmoke" || fields[1] != "1" ||
		fields[3] != "ns/op" || fields[5] != "throughput_qps" || fields[7] != "p99_ns" {
		t.Fatalf("bench line not benchguard-parseable: %q", line)
	}
}

// TestHTTPTargetTruncatedBody: a response whose body ends before its
// declared Content-Length is a transport error, not a parsed result.
func TestHTTPTargetTruncatedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "100")
		w.Write([]byte(`{"alg`))
	}))
	defer ts.Close()
	tgt := loadgen.HTTPTarget{URL: ts.URL}
	if _, _, err := tgt.Select(loadgen.Query{Coll: coll.Bcast, Nodes: 2, PPN: 1, Msg: 8}); err == nil {
		t.Fatal("want error from truncated response body")
	}
}
