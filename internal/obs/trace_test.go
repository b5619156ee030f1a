package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// tick returns a deterministic clock: 10, 20, 30, ... nanoseconds.
func tick() func() int64 {
	var n int64
	return func() int64 { n += 10; return n }
}

func TestTraceLifecycle(t *testing.T) {
	tr := NewTraceWithClock(tick())
	root := tr.StartSpan("tune:bcast", NoSpan)
	fit := tr.StartSpan("fit", root)
	tr.SetAttr(fit, "trees", 60)
	tr.EndSpan(fit)
	tr.EndSpan(root)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "tune:bcast" || spans[0].Parent != NoSpan {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Name != "fit" || spans[1].Parent != root {
		t.Errorf("child span = %+v", spans[1])
	}
	// tick order: root start 10, fit start 20, fit end 30, root end 40.
	if spans[1].StartNs != 20 || spans[1].EndNs != 30 {
		t.Errorf("fit times = [%d,%d], want [20,30]", spans[1].StartNs, spans[1].EndNs)
	}
	if spans[1].Duration() != 10 {
		t.Errorf("fit duration = %v, want 10ns", spans[1].Duration())
	}
	if spans[0].EndNs != 40 {
		t.Errorf("root end = %d, want 40", spans[0].EndNs)
	}
	if spans[1].Attrs["trees"] != 60 {
		t.Errorf("attrs = %v", spans[1].Attrs)
	}
}

func TestTraceEdgeCases(t *testing.T) {
	tr := NewTraceWithClock(tick())
	id := tr.StartSpan("a", NoSpan)
	tr.EndSpan(id)
	end := tr.Spans()[0].EndNs
	tr.EndSpan(id) // double-end must not advance the clock into the span
	if got := tr.Spans()[0].EndNs; got != end {
		t.Errorf("double EndSpan moved end %d -> %d", end, got)
	}
	tr.EndSpan(NoSpan)      // no-op
	tr.EndSpan(SpanID(999)) // out of range
	tr.SetAttr(NoSpan, "x", 1)
	tr.SetAttr(SpanID(999), "x", 1)
	if len(tr.Spans()) != 1 {
		t.Errorf("edge-case calls created spans: %d", len(tr.Spans()))
	}

	open := tr.StartSpan("open", NoSpan)
	spans := tr.Spans()
	if spans[1].EndNs != -1 {
		t.Errorf("open span EndNs = %d, want -1", spans[1].EndNs)
	}
	_ = open
}

// TestTraceSpansIsCopy pins that mutating the returned slice (or its
// attr maps) cannot corrupt the trace.
func TestTraceSpansIsCopy(t *testing.T) {
	tr := NewTraceWithClock(tick())
	id := tr.StartSpan("a", NoSpan)
	tr.SetAttr(id, "k", 1)
	got := tr.Spans()
	got[0].Name = "mutated"
	got[0].Attrs["k"] = 99
	again := tr.Spans()
	if again[0].Name != "a" || again[0].Attrs["k"] != 1 {
		t.Errorf("Spans() aliases internal state: %+v", again[0])
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := tr.StartSpan("work", NoSpan)
				tr.SetAttr(id, "i", float64(i))
				tr.EndSpan(id)
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 8*500 {
		t.Fatalf("got %d spans, want %d", len(spans), 8*500)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Fatalf("span %d ends before it starts: %+v", s.ID, s)
		}
	}
}

func TestSpanJSONShape(t *testing.T) {
	tr := NewTraceWithClock(tick())
	root := tr.StartSpan("tune:bcast", NoSpan)
	tr.EndSpan(root)
	b, err := json.Marshal(tr.Spans()[0])
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":1,"name":"tune:bcast","start_ns":10,"end_ns":20}`
	if string(b) != want {
		t.Errorf("span JSON = %s, want %s", b, want)
	}
}

// TestNopRecorderZeroAlloc is the contract that lets instrumentation
// stay on hot paths unconditionally.
func TestNopRecorderZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		id := Nop.StartSpan("round", NoSpan)
		Nop.SetAttr(id, "samples", 42)
		Nop.EndSpan(id)
	}); n != 0 {
		t.Errorf("Nop recorder allocates %v per span, want 0", n)
	}
}

func TestHandleZeroAlloc(t *testing.T) {
	var c Counter
	var g Gauge
	h := newHistogram(1, 10, 100)
	var ns int64
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(2.5)
		g.Add(1.5)
		h.Observe(42)
		ns += NowNs()
	}); n != 0 {
		t.Errorf("metric handles allocate %v per event, want 0", n)
	}
	if ns <= 0 {
		t.Errorf("NowNs sum = %d, want > 0", ns)
	}
}
