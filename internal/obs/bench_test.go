package obs

import "testing"

// These benchmarks feed the benchguard baseline; the allocs/op entries
// are pinned at exactly zero there, which benchguard treats as a hard
// gate — any allocation on these paths fails CI.

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeAdd(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1.0)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(defTimeBuckets...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100000))
	}
}

// BenchmarkNopRecorderRound is the span shape of one tuner round under
// the default recorder: the price instrumented control loops pay when
// nobody is tracing.
func BenchmarkNopRecorderRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		round := Nop.StartSpan("round", NoSpan)
		fit := Nop.StartSpan("fit", round)
		Nop.EndSpan(fit)
		Nop.SetAttr(round, "samples", float64(i))
		Nop.EndSpan(round)
	}
}

func BenchmarkTraceSpan(b *testing.B) {
	tr := NewTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.StartSpan("round", NoSpan)
		tr.EndSpan(id)
	}
}
