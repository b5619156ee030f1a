package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exactQuantile is the nearest-rank sample quantile over sorted
// samples: the value at rank ceil(q*n), the definition
// HDRHistogram.Quantile approximates within one bucket width.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHDRQuantileDifferential pins the accuracy contract: across
// uniform, lognormal, and adversarial (bucket-edge-hugging)
// distributions, Quantile(q) is never below the exact sorted sample
// quantile and never above it by more than the width of the bucket it
// answers from.
func TestHDRQuantileDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func(n int) []int64{
		"uniform": func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = rng.Int63n(5_000_000) // 0..5ms
			}
			return out
		},
		"lognormal": func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				// median ~e^10 ns ≈ 22µs with a heavy tail.
				out[i] = int64(math.Exp(10 + 1.5*rng.NormFloat64()))
			}
			return out
		},
		"adversarial": func(n int) []int64 {
			// Values hugging bucket edges across the whole trackable
			// range: exact powers of two, one below, one above, plus
			// the linear region. (At or above 2^hdrMaxExp everything
			// collapses into the overflow bucket by design, so the
			// one-bucket-width contract is asserted below it.)
			out := make([]int64, 0, n)
			for len(out) < n {
				e := uint(rng.Intn(hdrMaxExp - 1))
				v := int64(1) << e
				out = append(out, v, v-1, v+1, int64(rng.Intn(hdrSubCount)))
			}
			return out[:n]
		},
	}
	quantiles := []float64{0.5, 0.9, 0.99, 0.999, 1.0}
	for name, gen := range distributions {
		t.Run(name, func(t *testing.T) {
			samples := gen(20000)
			h := &HDRHistogram{}
			for _, v := range samples {
				h.ObserveNs(v)
			}
			sorted := append([]int64(nil), samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, q := range quantiles {
				got := h.Quantile(q)
				want := exactQuantile(sorted, q)
				if got < float64(want) {
					t.Errorf("q=%v: estimate %v below exact %d", q, got, want)
				}
				width := float64(hdrWidth(hdrIndex(int64(got))))
				if got-float64(want) > width {
					t.Errorf("q=%v: estimate %v exceeds exact %d by more than bucket width %v", q, got, want, width)
				}
			}
			// The recorder must answer identically when the same stream
			// is spread over shards.
			rec := NewHDRRecorder(8)
			for i, v := range samples {
				rec.Record(int64(i), v)
			}
			for _, q := range quantiles {
				if got, want := rec.Quantile(q), h.Quantile(q); got != want {
					t.Errorf("q=%v: sharded quantile %v != unsharded %v", q, got, want)
				}
			}
			if got, want := rec.Snapshot().Quantile(0.99), h.Quantile(0.99); got != want {
				t.Errorf("merged snapshot p99 %v != live %v", got, want)
			}
		})
	}
}

// TestHDRIndexRoundTrip checks every value lands in a bucket whose
// range contains it.
func TestHDRIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(v int64) {
		i := hdrIndex(v)
		up := hdrUpper(i)
		if v > up {
			t.Fatalf("value %d above bucket %d upper bound %d", v, i, up)
		}
		if up != math.MaxInt64 && v < up-hdrWidth(i)+1 {
			t.Fatalf("value %d below bucket %d lower bound %d", v, i, up-hdrWidth(i)+1)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 100000; i++ {
		check(rng.Int63())
	}
	if got := hdrIndex(math.MaxInt64); got != hdrNumBuckets-1 {
		t.Errorf("MaxInt64 index = %d, want overflow bucket %d", got, hdrNumBuckets-1)
	}
	// At and above the 2^hdrMaxExp boundary the accuracy contract ends:
	// everything lands in the overflow bucket, whose reported upper
	// bound is MaxInt64.
	h := &HDRHistogram{}
	h.ObserveNs(1 << hdrMaxExp)
	if got := h.Quantile(1); got != float64(math.MaxInt64) {
		t.Errorf("overflow quantile = %v, want MaxInt64", got)
	}
}

func TestHDRDropsBadInputs(t *testing.T) {
	h := &HDRHistogram{}
	h.Observe(math.NaN())
	h.Observe(-1)
	h.ObserveNs(-5)
	h.Observe(3)
	if got := h.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if got := h.Count(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	if s := h.Snapshot(); s.Dropped != 3 || s.Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	// Infinity clamps into the overflow bucket rather than dropping:
	// it is a real (if absurd) magnitude, not a poisoned value.
	h.Observe(math.Inf(1))
	if got := h.Count(); got != 2 {
		t.Errorf("count after +Inf = %d, want 2", got)
	}

	boundedPtr := newHistogram(1, 2, 3)
	boundedPtr.Observe(math.NaN())
	boundedPtr.Observe(-0.5)
	boundedPtr.Observe(2)
	if got := boundedPtr.Dropped(); got != 2 {
		t.Errorf("bounded dropped = %d, want 2", got)
	}
	if got := boundedPtr.Count(); got != 1 {
		t.Errorf("bounded count = %d, want 1", got)
	}
	if s := boundedPtr.Snapshot(); s.Dropped != 2 {
		t.Errorf("bounded snapshot dropped = %d, want 2", s.Dropped)
	}
}

func TestHDRMerge(t *testing.T) {
	a, b := &HDRHistogram{}, &HDRHistogram{}
	whole := &HDRHistogram{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		whole.ObserveNs(v)
		if i%2 == 0 {
			a.ObserveNs(v)
		} else {
			b.ObserveNs(v)
		}
	}
	b.Observe(-1) // dropped counts merge too
	m := a.Snapshot().Merge(b.Snapshot())
	w := whole.Snapshot()
	// Sums are reconstructed per bucket, so merging only reorders float
	// additions — equal up to rounding.
	if m.Count != w.Count || math.Abs(m.Sum-w.Sum) > 1e-6*w.Sum {
		t.Errorf("merged count/sum = %d/%v, want %d/%v", m.Count, m.Sum, w.Count, w.Sum)
	}
	if m.Dropped != 1 {
		t.Errorf("merged dropped = %d, want 1", m.Dropped)
	}
	if len(m.Buckets) != len(w.Buckets) {
		t.Fatalf("merged buckets = %d, want %d", len(m.Buckets), len(w.Buckets))
	}
	for i := range m.Buckets {
		if m.Buckets[i] != w.Buckets[i] {
			t.Errorf("bucket %d: merged %+v, whole %+v", i, m.Buckets[i], w.Buckets[i])
		}
	}
	if m.P99 != w.P99 || m.P999 != w.P999 || m.Max != w.Max {
		t.Errorf("merged quantiles %v/%v/%v, want %v/%v/%v", m.P50, m.P99, m.Max, w.P50, w.P99, w.Max)
	}
}

func TestHDRRecorderConcurrent(t *testing.T) {
	rec := NewHDRRecorder(4)
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec.Record(int64(g*perG+i), int64(i%1000))
			}
		}(g)
	}
	wg.Wait()
	if got := rec.Count(); got != goroutines*perG {
		t.Errorf("count = %d, want %d", got, goroutines*perG)
	}
	s := rec.Snapshot()
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, s.Count)
	}
}

func TestHDRNilSafety(t *testing.T) {
	var h *HDRHistogram
	var rec *HDRRecorder
	h.Observe(1)
	h.ObserveNs(1)
	rec.Record(0, 1)
	if h.Count() != 0 || h.Sum() != 0 || h.Dropped() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("nil histogram must read as zero")
	}
	if rec.Count() != 0 || rec.Dropped() != 0 || rec.Quantile(0.5) != 0 || rec.Mean() != 0 {
		t.Error("nil recorder must read as zero")
	}
	if rec.Snapshot().Count != 0 || h.Snapshot().Count != 0 {
		t.Error("nil snapshots must be empty")
	}
	var r *Registry
	if r.HDR("x") != nil {
		t.Error("nil registry must hand out nil HDR handles")
	}
	r.HDRFunc("x", func() *HDRRecorder { return nil })
	r.Describe("x", "help")
}

func TestHDRZeroAlloc(t *testing.T) {
	h := &HDRHistogram{}
	rec := NewHDRRecorder(4)
	if n := testing.AllocsPerRun(1000, func() {
		h.ObserveNs(12345)
		h.Observe(98765.0)
		h.Observe(-1) // dropped path must be free too
	}); n != 0 {
		t.Errorf("HDRHistogram observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		rec.Record(42, 12345)
	}); n != 0 {
		t.Errorf("HDRRecorder record allocates %v/op", n)
	}
}

func TestHDRRegistryIntegration(t *testing.T) {
	r := NewRegistry()
	rec := r.HDR("load.lat_ns")
	if r.HDR("load.lat_ns") != rec {
		t.Error("second HDR() returned a different handle")
	}
	rec.Record(1, 150)
	rec.Record(2, 2500)
	r.HDRFunc("serve.lat_ns", func() *HDRRecorder { return rec })

	snap := r.Snapshot()
	hs, ok := snap["load.lat_ns"].(HDRSnapshot)
	if !ok || hs.Count != 2 {
		t.Fatalf("HDR snapshot = %#v", snap["load.lat_ns"])
	}
	if fs, ok := snap["serve.lat_ns"].(HDRSnapshot); !ok || fs.Count != 2 {
		t.Fatalf("hdrFunc snapshot = %#v", snap["serve.lat_ns"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not JSON-marshalable: %v", err)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE load_lat_ns histogram",
		`load_lat_ns_bucket{le="+Inf"} 2`,
		"load_lat_ns_count 2",
		"# TYPE load_lat_ns_p99 gauge",
		"# TYPE serve_lat_ns_p999 gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("kind collision did not panic")
		}
	}()
	r.Counter("load.lat_ns")
}
