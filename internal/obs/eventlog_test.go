package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// tickClock is the deterministic test clock: every call advances by a
// fixed step.
func tickClock(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

// TestEventLogByteStable pins the exact bytes a span timeline produces
// under the injected clock — the exporter's whole value is that these
// lines are diffable across runs.
func TestEventLogByteStable(t *testing.T) {
	run := func() string {
		var b strings.Builder
		l := newEventLogWithClock(&b, 1<<20, tickClock(10))
		root := l.StartSpan("tune:bcast", NoSpan)
		child := l.StartSpan("fit", root)
		l.SetAttr(child, "trees", 60)
		l.EndSpan(child)
		l.SetAttr(root, "variance", 0.25)
		l.EndSpan(root)
		return b.String()
	}
	got := run()
	want := `{"ev":"span_start","t_ns":10,"id":1,"name":"tune:bcast"}
{"ev":"span_start","t_ns":20,"id":2,"parent":1,"name":"fit"}
{"ev":"attr","id":2,"key":"trees","value":60}
{"ev":"span_end","t_ns":30,"id":2}
{"ev":"attr","id":1,"key":"variance","value":0.25}
{"ev":"span_end","t_ns":40,"id":1}
`
	if got != want {
		t.Errorf("event log bytes:\n%q\nwant:\n%q", got, want)
	}
	if second := run(); second != got {
		t.Error("two identical runs produced different bytes")
	}
}

// TestEventLogSizeCap pins the bounded-export contract: lines beyond
// the cap are dropped and counted, and the written prefix stays intact
// (whole lines only, never a truncated one).
func TestEventLogSizeCap(t *testing.T) {
	var b strings.Builder
	l := newEventLogWithClock(&b, 120, tickClock(1))
	for i := 0; i < 10; i++ {
		l.StartSpan("fill", NoSpan)
	}
	if l.Dropped() == 0 {
		t.Fatal("no lines dropped despite cap")
	}
	if l.Events()+l.Dropped() != 10 {
		t.Errorf("events %d + dropped %d != 10", l.Events(), l.Dropped())
	}
	if int64(b.Len()) != l.BytesWritten() || int64(b.Len()) > 120 {
		t.Errorf("wrote %d bytes (reported %d), cap 120", b.Len(), l.BytesWritten())
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, `{"ev":`) || !strings.HasSuffix(line, "}") {
			t.Errorf("partial line written: %q", line)
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestEventLogWriteError(t *testing.T) {
	l := newEventLogWithClock(&failWriter{n: 2}, 1<<20, tickClock(1))
	for i := 0; i < 5; i++ {
		l.StartSpan("e", NoSpan)
	}
	if l.Events() != 2 || l.Dropped() != 3 {
		t.Errorf("events %d / dropped %d, want 2 / 3", l.Events(), l.Dropped())
	}
	if l.Err() == nil {
		t.Error("write error not surfaced")
	}
}

func TestEventLogRegister(t *testing.T) {
	var b strings.Builder
	l := newEventLogWithClock(&b, 1<<20, tickClock(1))
	reg := NewRegistry()
	l.Register(reg)
	l.StartSpan("e", NoSpan)
	snap := reg.Snapshot()
	if snap["eventlog.lines_total"] != 1.0 || snap["eventlog.dropped_total"] != 0.0 {
		t.Errorf("registry view = %#v", snap)
	}
	if snap["eventlog.bytes_total"].(float64) != float64(b.Len()) {
		t.Errorf("bytes_total = %v, want %d", snap["eventlog.bytes_total"], b.Len())
	}
	l.Register(nil) // nil registry no-ops
}

func TestEventLogConcurrent(t *testing.T) {
	var b strings.Builder
	l := NewEventLog(&syncWriter{w: &b}, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := l.StartSpan("s", NoSpan)
				l.SetAttr(id, "k", float64(i))
				l.EndSpan(id)
			}
		}()
	}
	wg.Wait()
	if got := l.Events(); got != 8*200*3 {
		t.Errorf("events = %d, want %d", got, 8*200*3)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, `{"ev":`) || !strings.HasSuffix(line, "}") {
			t.Fatalf("interleaved/corrupt line: %q", line)
		}
	}
}

// syncWriter serialises writes; strings.Builder alone is not safe for
// concurrent use and the EventLog already holds its own lock, so this
// only matters for the test's read-back.
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestTeeRecorder pins the fan-out contract: both recorders see the
// same span structure (parent links included) even though their span
// ids differ, and attrs after EndSpan reach neither.
func TestTeeRecorder(t *testing.T) {
	trace := NewTraceWithClock(tickClock(1))
	var b strings.Builder
	l := newEventLogWithClock(&b, 1<<20, tickClock(10))
	rec := Tee(trace, l)

	root := rec.StartSpan("root", NoSpan)
	child := rec.StartSpan("child", root)
	rec.SetAttr(child, "k", 7)
	rec.EndSpan(child)
	rec.EndSpan(root)
	rec.SetAttr(root, "late", 1) // after end: must not resurrect

	spans := trace.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID {
		t.Fatalf("trace spans = %+v", spans)
	}
	out := b.String()
	for _, want := range []string{
		`"name":"root"`,
		`"parent":1`,
		`"key":"k"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("event log missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "late") {
		t.Errorf("attr after EndSpan leaked to event log:\n%s", out)
	}
}
