package obs

import (
	"io"
	"strconv"
	"sync"
)

// EventLog is a bounded structured trace exporter: span starts, span
// attributes and span ends are written as one JSON object per line
// (JSONL) the moment they happen, so traces leave the process while it
// runs instead of living only in the -run-report snapshot. It
// implements Recorder, so it can replace — or, through Tee, ride
// alongside — the in-memory Trace.
//
// Three properties shape it:
//
//   - Byte-stable output. Lines are hand-encoded with a fixed field
//     order and strconv formatting (no map iteration, no
//     encoding/json), so a run under an injected deterministic clock
//     produces identical bytes every time — the golden-test contract
//     every exporter in this repository honours.
//   - Bounded. A size cap (maxBytes) stops the log growing without
//     limit on a long-lived server; once reached, further lines are
//     dropped and counted, never silently lost. A write error likewise
//     stops output and counts every subsequent line as dropped.
//   - Lock-cheap. One mutex guards a reused append buffer and the
//     writer; the critical section is encode-and-write of a single
//     short line. Span events come from control loops (tuning rounds,
//     load-generator phases), not per-call hot paths.
type EventLog struct {
	mu      sync.Mutex
	w       io.Writer    // guarded by mu
	now     func() int64 // guarded by mu (set once at construction, read under lock)
	buf     []byte       // guarded by mu (reused line buffer)
	written int64        // guarded by mu (bytes successfully written)
	err     error        // guarded by mu (first write error; output stops after it)
	nextID  SpanID       // guarded by mu
	max     int64

	events  Counter // lines written
	dropped Counter // lines dropped (size cap or write error)
}

// defaultEventLogBytes is the size cap NewEventLog applies when the
// caller passes maxBytes <= 0: large enough for any tuning run, small
// enough that a forgotten event log cannot fill a disk.
const defaultEventLogBytes = 64 << 20

// NewEventLog returns an event log writing to w, capped at maxBytes
// (defaultEventLogBytes if <= 0), stamping lines with the host
// instrumentation clock.
func NewEventLog(w io.Writer, maxBytes int64) *EventLog {
	return newEventLogWithClock(w, maxBytes, NowNs)
}

// newEventLogWithClock is NewEventLog with a caller-supplied clock
// (nanoseconds since an arbitrary epoch) — tests inject a deterministic
// tick so the exported bytes are stable.
func newEventLogWithClock(w io.Writer, maxBytes int64, now func() int64) *EventLog {
	if maxBytes <= 0 {
		maxBytes = defaultEventLogBytes
	}
	return &EventLog{w: w, now: now, max: maxBytes}
}

// StartSpan implements Recorder: emits a span_start line and returns
// the span's id.
func (l *EventLog) StartSpan(name string, parent SpanID) SpanID {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	id := l.nextID
	l.buf = l.buf[:0]
	l.buf = append(l.buf, `{"ev":"span_start","t_ns":`...)
	l.buf = strconv.AppendInt(l.buf, l.now(), 10)
	l.buf = append(l.buf, `,"id":`...)
	l.buf = strconv.AppendInt(l.buf, int64(id), 10)
	if parent != NoSpan {
		l.buf = append(l.buf, `,"parent":`...)
		l.buf = strconv.AppendInt(l.buf, int64(parent), 10)
	}
	l.buf = append(l.buf, `,"name":`...)
	l.buf = strconv.AppendQuote(l.buf, name)
	l.buf = append(l.buf, '}', '\n')
	l.flushLine()
	return id
}

// EndSpan implements Recorder: emits a span_end line. Ending NoSpan is
// a no-op.
func (l *EventLog) EndSpan(id SpanID) {
	if id == NoSpan {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.buf = append(l.buf, `{"ev":"span_end","t_ns":`...)
	l.buf = strconv.AppendInt(l.buf, l.now(), 10)
	l.buf = append(l.buf, `,"id":`...)
	l.buf = strconv.AppendInt(l.buf, int64(id), 10)
	l.buf = append(l.buf, '}', '\n')
	l.flushLine()
}

// SetAttr implements Recorder: emits an attr line bound to the span.
func (l *EventLog) SetAttr(id SpanID, key string, value float64) {
	if id == NoSpan {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.buf = append(l.buf, `{"ev":"attr","id":`...)
	l.buf = strconv.AppendInt(l.buf, int64(id), 10)
	l.buf = append(l.buf, `,"key":`...)
	l.buf = strconv.AppendQuote(l.buf, key)
	l.buf = append(l.buf, `,"value":`...)
	l.buf = appendJSONFloat(l.buf, value)
	l.buf = append(l.buf, '}', '\n')
	l.flushLine()
}

// appendJSONFloat formats a float for a JSON value position: shortest
// round-trip form, with the integer-valued common case rendered without
// an exponent.
func appendJSONFloat(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// flushLine writes l.buf if the log is healthy and under its cap;
// otherwise it counts the line as dropped. Called with l.mu held.
//
//acclaim:allow lockcheck internal helper, every caller holds l.mu around the encode-and-flush
func (l *EventLog) flushLine() {
	if l.err != nil || l.written+int64(len(l.buf)) > l.max {
		l.dropped.Inc()
		return
	}
	n, err := l.w.Write(l.buf)
	l.written += int64(n)
	if err != nil {
		l.err = err
		l.dropped.Inc()
		return
	}
	l.events.Inc()
}

// Events returns the number of lines successfully written.
func (l *EventLog) Events() uint64 { return l.events.Load() }

// Dropped returns the number of lines dropped by the size cap or a
// write error.
func (l *EventLog) Dropped() uint64 { return l.dropped.Load() }

// BytesWritten returns the number of bytes successfully written.
func (l *EventLog) BytesWritten() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// Err returns the first write error, if any.
func (l *EventLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Register exposes the event log's health counters on a metrics
// registry.
func (l *EventLog) Register(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Func("eventlog.lines_total", func() float64 { return float64(l.Events()) })
	reg.Func("eventlog.dropped_total", func() float64 { return float64(l.Dropped()) })
	reg.Func("eventlog.bytes_total", func() float64 { return float64(l.BytesWritten()) })
}

// teeRecorder fans span calls out to two recorders. The primary's span
// ids are the ones callers hold; the secondary's ids are mapped
// internally.
type teeRecorder struct {
	a, b Recorder
	mu   sync.Mutex
	ids  map[SpanID]SpanID // guarded by mu: primary id -> secondary id
}

// Tee returns a Recorder that forwards every span operation to both a
// and b (a's span ids are the ones returned). It lets cmd/acclaim keep
// the in-memory Trace for the run report while an EventLog streams the
// same spans to disk.
func Tee(a, b Recorder) Recorder {
	return &teeRecorder{a: a, b: b, ids: make(map[SpanID]SpanID)}
}

func (t *teeRecorder) StartSpan(name string, parent SpanID) SpanID {
	//acclaim:allow metricname pass-through fan-out: the caller's span name was already checked at its own StartSpan site
	ida := t.a.StartSpan(name, parent)
	t.mu.Lock()
	pb := t.ids[parent]
	t.mu.Unlock()
	//acclaim:allow metricname pass-through fan-out: same caller-supplied name forwarded to the secondary recorder
	idb := t.b.StartSpan(name, pb)
	t.mu.Lock()
	t.ids[ida] = idb
	t.mu.Unlock()
	return ida
}

func (t *teeRecorder) EndSpan(id SpanID) {
	t.a.EndSpan(id)
	t.mu.Lock()
	idb, ok := t.ids[id]
	delete(t.ids, id) // ended spans take no more attrs; bound the map
	t.mu.Unlock()
	if ok {
		t.b.EndSpan(idb)
	}
}

func (t *teeRecorder) SetAttr(id SpanID, key string, value float64) {
	t.a.SetAttr(id, key, value)
	t.mu.Lock()
	idb, ok := t.ids[id]
	t.mu.Unlock()
	if ok {
		t.b.SetAttr(idb, key, value)
	}
}
