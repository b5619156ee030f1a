package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race (the CI race job does) this doubles as the data-race
// proof for the handle types.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	const goroutines, perG = 8, 5000
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Load(), float64(goroutines*perG)*0.5; got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	g.Set(-3)
	if got := g.Load(); got != -3 {
		t.Errorf("gauge after Set = %v, want -3", got)
	}
}

// TestHistogramConcurrent drives concurrent Observe on one registry
// histogram: no observation may be lost, and every one lands in the
// bucket of its value.
func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 5000
	h := NewRegistry().Histogram("shared.lat_ns")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g%4) * 40) // 0, 40, 80, 120: four buckets
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if len(s.Buckets) != 4 {
		t.Fatalf("occupied buckets = %+v, want 4", s.Buckets)
	}
	for i, b := range s.Buckets {
		if b.Count != 2*perG {
			t.Errorf("bucket %d (le %v) = %d, want %d", i, b.Le, b.Count, 2*perG)
		}
	}
	// Sum is reconstructed at bucket resolution: within half a bucket
	// width (~1.6%) of the exact total.
	if want := float64(2*perG) * (0 + 40 + 80 + 120); math.Abs(s.Sum-want) > want/64 {
		t.Errorf("sum = %v, want %v within 1/64", s.Sum, want)
	}
}

// TestNilHandles pins the no-op contract: every method on nil handles
// and a nil registry is safe and returns zero values.
func TestNilHandles(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *HDRHistogram
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Load() != 0 || g.Load() != 0 {
		t.Error("nil handles must read as zero")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Errorf("nil histogram snapshot = %+v, want empty", s)
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry must hand out nil handles")
	}
	r.Func("x", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.total")
	c1.Add(7)
	if c2 := r.Counter("a.total"); c2 != c1 {
		t.Error("second Counter() returned a different handle")
	}
	h1 := r.Histogram("a.lat_ns")
	if h2 := r.Histogram("a.lat_ns"); h2 != h1 {
		t.Error("second Histogram() returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind collision did not panic")
		}
	}()
	r.Gauge("a.total") // registered as a counter above
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Counter("shared.total").Inc()
				r.Histogram("shared.h").Observe(float64(i))
				r.Gauge("shared.g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.total").Load(); got != 8*2000 {
		t.Errorf("shared counter = %d, want %d", got, 8*2000)
	}
}

func TestSnapshotShapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.total").Add(3)
	r.Gauge("g").Set(2.5)
	r.Histogram("h.ns").Observe(15)
	r.Func("f", func() float64 { return 42 })

	s := r.Snapshot()
	if s["c.total"] != uint64(3) {
		t.Errorf("counter snapshot = %#v", s["c.total"])
	}
	if s["g"] != 2.5 || s["f"] != 42.0 {
		t.Errorf("gauge/func snapshot = %#v / %#v", s["g"], s["f"])
	}
	hs, ok := s["h.ns"].(HDRSnapshot)
	if !ok || hs.Count != 1 || len(hs.Buckets) != 1 || hs.Buckets[0] != (HDRBucket{Le: 15, Count: 1}) || hs.P99 != 15 {
		t.Errorf("histogram snapshot = %#v", s["h.ns"])
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("tuner.rounds_total").Add(12)
	r.Gauge("tuner.bcast.cum_variance").Set(0.25)
	r.Histogram("serve.lat_ns").Observe(5)
	r.Histogram("serve.lat_ns").Observe(5000) // log region: bucket 4992..5119
	r.Func("ruleserver.hits", func() float64 { return 9 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE tuner_rounds_total counter",
		"tuner_rounds_total 12",
		"# TYPE tuner_bcast_cum_variance gauge",
		"tuner_bcast_cum_variance 0.25",
		"# TYPE serve_lat_ns histogram",
		`serve_lat_ns_bucket{le="5"} 1`,
		`serve_lat_ns_bucket{le="5119"} 2`,
		`serve_lat_ns_bucket{le="+Inf"} 2`,
		"serve_lat_ns_count 2",
		"# TYPE serve_lat_ns_p99 gauge",
		"serve_lat_ns_p99 5119",
		"ruleserver_hits 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestPrometheusEdgeCases covers the rendering paths the main output
// test does not: zero-count histograms (a registered metric that never
// saw traffic must still render a complete, parseable histogram with
// no finite bucket), and metric names whose characters need promName
// flattening.
func TestPrometheusEdgeCases(t *testing.T) {
	r := NewRegistry()
	r.Histogram("serve.lat.empty_ns")
	r.Counter("9weird-name.total")
	r.Gauge("mixed:Case.metric")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		// Zero-count histogram: the catch-all bucket, sum, count and
		// every quantile gauge present at 0.
		`serve_lat_empty_ns_bucket{le="+Inf"} 0`,
		"serve_lat_empty_ns_sum 0",
		"serve_lat_empty_ns_count 0",
		"serve_lat_empty_ns_p50 0",
		"serve_lat_empty_ns_p90 0",
		"serve_lat_empty_ns_p99 0",
		"serve_lat_empty_ns_p999 0",
		// promName flattening: leading digit and '-' become '_', ':' is
		// legal in the Prometheus charset and survives.
		"_weird_name_total 0",
		"mixed:Case_metric 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	if n := strings.Count(out, "serve_lat_empty_ns_bucket"); n != 1 {
		t.Errorf("empty histogram renders %d buckets, want only +Inf\n%s", n, out)
	}
}

// TestPrometheusHelp pins the Describe contract: described metrics get
// a # HELP line immediately before their # TYPE line, and undescribed
// (or cleared) metrics render byte-identically to a registry that never
// called Describe.
func TestPrometheusHelp(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.lookups_total")
	r.Gauge("serve.depth")
	r.Describe("serve.lookups_total", "total rule lookups served")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(),
		"# HELP serve_lookups_total total rule lookups served\n# TYPE serve_lookups_total counter\n") {
		t.Errorf("HELP line missing or misplaced:\n%s", b.String())
	}

	// Clearing the help restores the exact undescribed byte output.
	r.Describe("serve.lookups_total", "")
	plain := NewRegistry()
	plain.Counter("serve.lookups_total")
	plain.Gauge("serve.depth")
	var cleared, never strings.Builder
	if err := r.WritePrometheus(&cleared); err != nil {
		t.Fatal(err)
	}
	if err := plain.WritePrometheus(&never); err != nil {
		t.Fatal(err)
	}
	if cleared.String() != never.String() {
		t.Errorf("cleared help output differs from never-described output:\n%q\nvs\n%q",
			cleared.String(), never.String())
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.total").Inc()

	rr := httptest.NewRecorder()
	r.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "c_total 1") {
		t.Errorf("prometheus body missing counter:\n%s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	r.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json content type = %q", ct)
	}
	var parsed map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("json body does not parse: %v", err)
	}
	if parsed["c.total"] != float64(1) {
		t.Errorf("json body = %#v", parsed)
	}
}
