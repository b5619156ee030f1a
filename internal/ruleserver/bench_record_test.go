package ruleserver

import (
	"math/rand"
	"testing"
	"time"

	"acclaim/internal/coll"
	"acclaim/internal/rules"
)

// recordBenchFile is a production-shaped single-collective rule file
// for the in-package recording benchmark (the cross-package harness in
// bench_test.go has its own).
func recordBenchFile() *rules.File {
	rng := rand.New(rand.NewSource(99))
	levels := func(n int, scale int64) []int64 {
		out := make([]int64, 0, n)
		v := scale
		for len(out) < n-1 {
			v *= 2
			out = append(out, v)
		}
		return append(out, rules.Unbounded)
	}
	t := &rules.Table{Collective: coll.Bcast.String()}
	for _, maxNodes := range levels(10, 1) {
		nb := rules.NodeBucket{MaxNodes: maxNodes}
		for _, maxPPN := range levels(8, 1) {
			pb := rules.PPNBucket{MaxPPN: maxPPN}
			for _, maxMsg := range levels(16, 8) {
				pb.Rules = append(pb.Rules, rules.MsgRule{
					MaxMsg: maxMsg,
					Alg:    []string{"binomial", "scatter_ring_allgather"}[rng.Intn(2)],
				})
			}
			nb.PPNs = append(nb.PPNs, pb)
		}
		t.Buckets = append(t.Buckets, nb)
	}
	f := rules.NewFile("record-bench")
	f.Tables[t.Collective] = t
	return f
}

// BenchmarkLookupRecordHeadroom gates the acceptance criterion for
// every-lookup latency recording: the HDR recorder itself must add
// less than 10% to the counted lookup path. Two servers run the same
// workload; the baseline's snapshot has its recorder stripped (Record
// on a nil *HDRRecorder is a no-op), so both sides pay the identical
// atomic counters AND the identical two-clock-read bracket — the only
// delta is the histogram write. The reported metric is
//
//	record_headroom = 1.1 x best(baseline) / best(recorded)
//
// so the benchguard floor of 1.0 holds exactly when the recorder's
// added cost is under 10%. Best-of over outer iterations strips
// scheduler and frequency noise from the interleaved A/B measurement;
// the fixed inner count keeps it stable even at -benchtime=1x.
//
// (The clock bracket is deliberately part of BOTH sides: on this class
// of hardware two monotonic clock reads cost ~3x the flattened lookup
// itself, so a gate against the old sampled path would measure the
// clock, not the recorder. DESIGN.md section 8 documents the trade.)
func BenchmarkLookupRecordHeadroom(b *testing.B) {
	f := recordBenchFile()
	recorded, baseline := newServer(), newServer()
	for _, s := range []*Server{recorded, baseline} {
		if err := s.Swap(f); err != nil {
			b.Fatal(err)
		}
	}
	baseline.cur.Load().lat = nil // no concurrent readers yet: safe to strip pre-measurement

	rng := rand.New(rand.NewSource(5678))
	logU := func(maxExp int) int {
		v := 1 << uint(rng.Intn(maxExp))
		return v + rng.Intn(v)
	}
	const nq = 1024
	nodes := make([]int, nq)
	ppn := make([]int, nq)
	msg := make([]int, nq)
	for i := 0; i < nq; i++ {
		nodes[i] = logU(10)
		ppn[i] = logU(7)
		msg[i] = logU(21)
	}

	const inner = 200_000
	bestBase := time.Duration(1<<63 - 1)
	bestRec := bestBase
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			q := j & (nq - 1)
			if _, ok := baseline.Lookup(coll.Bcast, nodes[q], ppn[q], msg[q]); !ok {
				b.Fatal("baseline lookup missed")
			}
		}
		if d := time.Since(t0); d < bestBase {
			bestBase = d
		}
		t0 = time.Now()
		for j := 0; j < inner; j++ {
			q := j & (nq - 1)
			if _, ok := recorded.Lookup(coll.Bcast, nodes[q], ppn[q], msg[q]); !ok {
				b.Fatal("recorded lookup missed")
			}
		}
		if d := time.Since(t0); d < bestRec {
			bestRec = d
		}
	}
	if recorded.Stats().P50 <= 0 {
		b.Fatal("recorded server reported no latency quantiles")
	}
	b.ReportMetric(1.1*float64(bestBase)/float64(bestRec), "record_headroom")
}
