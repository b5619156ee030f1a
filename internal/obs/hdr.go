package obs

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// HDR histogram geometry: a log-linear bucket grid over non-negative
// int64 values (the serving path records nanoseconds). Values below
// 2^hdrSubBits land in unit-width linear buckets; every octave above is
// split into 2^hdrSubBits equal sub-buckets, so the relative bucket
// width — and therefore the worst-case quantile error — is bounded by
// 2^-hdrSubBits (~3.1%) everywhere. Values at or above 2^hdrMaxExp
// (~18 minutes in nanoseconds) collapse into one overflow bucket.
const (
	hdrSubBits  = 5
	hdrSubCount = 1 << hdrSubBits
	hdrMaxExp   = 40
	// Linear region (hdrSubCount buckets) + (hdrMaxExp-hdrSubBits)
	// octaves of hdrSubCount sub-buckets + one overflow bucket.
	hdrNumBuckets = (hdrMaxExp-hdrSubBits+1)*hdrSubCount + 1
)

// hdrIndex maps a non-negative value to its bucket.
//
//acclaim:zeroalloc
func hdrIndex(v int64) int {
	if v < hdrSubCount {
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v))
	if e >= hdrMaxExp {
		return hdrNumBuckets - 1
	}
	sub := int((v >> uint(e-hdrSubBits)) & (hdrSubCount - 1))
	return (e-hdrSubBits)*hdrSubCount + hdrSubCount + sub
}

// hdrUpper returns the inclusive upper bound of bucket i — the value
// Quantile reports for ranks landing in it.
func hdrUpper(i int) int64 {
	if i < hdrSubCount {
		return int64(i)
	}
	if i >= hdrNumBuckets-1 {
		return math.MaxInt64
	}
	u := i - hdrSubCount
	e := hdrSubBits + u/hdrSubCount
	sub := u % hdrSubCount
	return 1<<uint(e) + int64(sub+1)<<uint(e-hdrSubBits) - 1
}

// hdrWidth returns the width of bucket i (the quantile error bound the
// differential test asserts).
func hdrWidth(i int) int64 {
	if i < hdrSubCount {
		return 1
	}
	if i >= hdrNumBuckets-1 {
		return math.MaxInt64
	}
	e := hdrSubBits + (i-hdrSubCount)/hdrSubCount
	return 1 << uint(e-hdrSubBits)
}

// hdrRep is the representative value Sum reconstruction assigns to
// bucket i: the exact value in the unit-width linear region, the
// bucket midpoint in the log region (error <= half a bucket width,
// ~1.6% relative), and the conservative lower bound for the overflow
// bucket.
func hdrRep(i int) float64 {
	if i < hdrSubCount {
		return float64(i)
	}
	if i >= hdrNumBuckets-1 {
		return float64(int64(1) << hdrMaxExp)
	}
	return float64(hdrUpper(i)) - float64(hdrWidth(i)-1)/2
}

// HDRHistogram is a high-dynamic-range log-linear histogram for
// non-negative values (latencies in nanoseconds on the serving path):
// zero-alloc lock-free Observe, exact counts per ~3%-wide bucket, and
// Quantile answers exact within one bucket width. NaN and negative
// observations are rejected and counted in Dropped instead of
// corrupting a bucket. The zero value is ready to use; all methods are
// safe for concurrent use and nil receivers no-op.
//
// The observe path is a single atomic increment on the value's bucket
// — no separate count or sum word, which matters when the serving
// path brackets every lookup: one uncontended atomic RMW is the whole
// recording cost. Count is reconstructed exactly from the buckets at
// read time; Sum is reconstructed at bucket resolution (exact in the
// linear region, midpoint in the log region, so <= ~1.6% relative
// error — the same order as the quantile contract).
//
//acclaim:frozen
type HDRHistogram struct {
	counts  [hdrNumBuckets]atomic.Uint64
	dropped atomic.Uint64
}

// ObserveNs records one non-negative integer observation (nanoseconds
// on latency paths). Negative values are dropped and counted.
//
//acclaim:zeroalloc
func (h *HDRHistogram) ObserveNs(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		h.dropped.Add(1)
		return
	}
	h.counts[hdrIndex(v)].Add(1)
}

// Observe records one value, rounding to the integer grid. NaN and
// negative values are dropped and counted, never binned.
//
//acclaim:zeroalloc
func (h *HDRHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v != v || v < 0 {
		h.dropped.Add(1)
		return
	}
	if v >= math.MaxInt64 {
		h.ObserveNs(math.MaxInt64)
		return
	}
	h.ObserveNs(int64(v))
}

// Count returns the total number of accepted observations
// (reconstructed exactly from the buckets).
func (h *HDRHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all accepted observations, reconstructed
// from the buckets at bucket resolution (see hdrRep).
func (h *HDRHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	var sum float64
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			sum += float64(c) * hdrRep(i)
		}
	}
	return sum
}

// Dropped returns the number of rejected (NaN or negative)
// observations.
func (h *HDRHistogram) Dropped() uint64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// Mean returns Sum/Count, or 0 with no observations.
func (h *HDRHistogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Quantile returns the value at quantile q (0 < q <= 1) by
// nearest-rank over the bucket grid: the reported value is the upper
// bound of the bucket holding rank ceil(q*n), so it is never below the
// true sample quantile and never above it by more than one bucket
// width (~3.1% relative). Returns 0 with no observations.
func (h *HDRHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	// One consistent pass: copy the buckets, then rank over the copy,
	// so concurrent writers cannot push the target rank past the
	// cumulative walk.
	var counts [hdrNumBuckets]uint64
	var n uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return float64(hdrUpper(i))
		}
	}
	return float64(hdrUpper(hdrNumBuckets - 1))
}

// Max returns the upper bound of the highest occupied bucket (0 when
// empty) — an upper estimate of the true maximum within one bucket
// width, with no extra cost on the observe path.
func (h *HDRHistogram) Max() float64 {
	if h == nil {
		return 0
	}
	for i := hdrNumBuckets - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			return float64(hdrUpper(i))
		}
	}
	return 0
}

// HDRBucket is one occupied bucket of an HDR snapshot: Le is the
// bucket's inclusive upper bound, Count its (non-cumulative)
// occupancy.
type HDRBucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HDRSnapshot is a point-in-time copy of an HDR histogram with
// precomputed quantiles, as embedded in registry snapshots and run
// reports. Buckets is sparse — occupied buckets only, ascending by Le —
// and two snapshots taken on the same grid merge exactly.
type HDRSnapshot struct {
	Count   uint64      `json:"count"`
	Sum     float64     `json:"sum"`
	Dropped uint64      `json:"dropped,omitempty"`
	P50     float64     `json:"p50"`
	P90     float64     `json:"p90"`
	P99     float64     `json:"p99"`
	P999    float64     `json:"p999"`
	Max     float64     `json:"max"`
	Buckets []HDRBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Like
// Histogram.Snapshot, concurrent writers make this a consistent-enough
// view, not an atomic cut.
func (h *HDRHistogram) Snapshot() HDRSnapshot {
	if h == nil {
		return HDRSnapshot{}
	}
	s := HDRSnapshot{Dropped: h.dropped.Load()}
	for i := 0; i < hdrNumBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HDRBucket{Le: float64(hdrUpper(i)), Count: c})
			s.Count += c
			s.Sum += float64(c) * hdrRep(i)
		}
	}
	s.fillQuantiles()
	return s
}

// fillQuantiles recomputes the P50..Max fields from Buckets.
func (s *HDRSnapshot) fillQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
	s.Max = 0
	if n := len(s.Buckets); n > 0 {
		s.Max = s.Buckets[n-1].Le
	}
}

// Quantile answers from the snapshot's sparse buckets with the same
// nearest-rank semantics as HDRHistogram.Quantile.
func (s HDRSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.Le
		}
	}
	if n := len(s.Buckets); n > 0 {
		return s.Buckets[n-1].Le
	}
	return 0
}

// Merge returns the combination of two snapshots taken on the same
// bucket grid (per-shard snapshots, or the same recorder at two
// times), with quantiles recomputed over the merged counts.
func (s HDRSnapshot) Merge(o HDRSnapshot) HDRSnapshot {
	out := HDRSnapshot{
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
		Dropped: s.Dropped + o.Dropped,
		Buckets: make([]HDRBucket, 0, len(s.Buckets)+len(o.Buckets)),
	}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Le < o.Buckets[j].Le):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Le < s.Buckets[i].Le:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, HDRBucket{Le: s.Buckets[i].Le, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	out.fillQuantiles()
	return out
}

// HDRRecorder shards an HDR histogram so that unbounded concurrent
// writers (every rank's rule lookup, every load-generator worker)
// never contend on one cache line. Record spreads writers across
// shards by the low bits of the caller's start timestamp — calls that
// begin in the same nanosecond are the only ones that can collide, a
// good approximation of per-P striping without thread-local state.
// Reads merge all shards. The zero value is not usable; call
// NewHDRRecorder. Nil receivers no-op.
//
//acclaim:frozen
type HDRRecorder struct {
	shards []HDRHistogram
	mask   uint64
}

// NewHDRRecorder builds a recorder with the given shard count rounded
// up to a power of two; shards <= 0 picks one shard per GOMAXPROCS
// (capped at 64), the configuration the rule server uses.
func NewHDRRecorder(shards int) *HDRRecorder {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 64 {
			shards = 64
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &HDRRecorder{shards: make([]HDRHistogram, n), mask: uint64(n - 1)}
}

// Record stores one latency observation (nanoseconds), sharded by the
// observation's start timestamp. Negative latencies (clock retreat)
// are dropped and counted.
//
//acclaim:zeroalloc
func (r *HDRRecorder) Record(startNs, latencyNs int64) {
	if r == nil {
		return
	}
	// Hand-inlined ObserveNs: the shard count is a power of two, so
	// masking by len-1 lets the compiler drop the bounds check, and the
	// whole accepted path is one atomic RMW — the recording budget the
	// record_headroom benchmark gates.
	shards := r.shards
	h := &shards[uint64(startNs)&uint64(len(shards)-1)]
	if latencyNs < 0 {
		h.dropped.Add(1)
		return
	}
	h.counts[hdrIndex(latencyNs)].Add(1)
}

// Count returns total accepted observations across shards.
func (r *HDRRecorder) Count() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.shards {
		n += r.shards[i].Count()
	}
	return n
}

// Dropped returns total rejected observations across shards.
func (r *HDRRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.shards {
		n += r.shards[i].Dropped()
	}
	return n
}

// Quantile merges the shards' bucket counts on the fly and answers
// with HDRHistogram.Quantile semantics.
func (r *HDRRecorder) Quantile(q float64) float64 {
	if r == nil {
		return 0
	}
	n := r.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := 0; i < hdrNumBuckets; i++ {
		for s := range r.shards {
			cum += r.shards[s].counts[i].Load()
		}
		if cum >= rank {
			return float64(hdrUpper(i))
		}
	}
	return float64(hdrUpper(hdrNumBuckets - 1))
}

// Mean returns the mean accepted observation across shards.
func (r *HDRRecorder) Mean() float64 {
	if r == nil {
		return 0
	}
	var sum float64
	var n uint64
	for i := range r.shards {
		sum += r.shards[i].Sum()
		n += r.shards[i].Count()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Snapshot merges every shard into one HDRSnapshot.
func (r *HDRRecorder) Snapshot() HDRSnapshot {
	if r == nil {
		return HDRSnapshot{}
	}
	out := r.shards[0].Snapshot()
	for i := 1; i < len(r.shards); i++ {
		out = out.Merge(r.shards[i].Snapshot())
	}
	return out
}
