package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"acclaim/internal/obs"
)

// span is one traced interval. parent is the index+1 of the enclosing
// span in the same lane (0: a root); ctx is the job or connection the
// span belongs to; child is the part of the interval direct children
// cover, so self time is end-start-child.
//
// A span holds no pointer (its name is an index into the lane's name
// table), so the collector never scans a lane's few hundred megabytes
// of reserved, mostly untouched span store.
type span struct {
	name       uint16
	parent     int32
	ctx        int32
	start, end int64 // ns since the lane's epoch
	child      int64
}

// lane is the span store of one goroutine: the tuning driver, one
// serving connection, or the reloader. Exactly one goroutine writes a
// lane and the ledger reads it after that goroutine has been waited
// for, so recording needs no lock and no atomic. A nil *lane records
// nothing: that is the untraced run.
//
// lane implements obs.Recorder, which is how the tuner's own tune:<c> /
// round / fit / score / pick / collect / seed_collect spans land here
// without a change to the tuner.
type lane struct {
	epoch   time.Time
	ctx     int32
	cur     int32 // innermost open span, index+1
	spans   []span
	names   []string
	nameID  map[string]uint16
	dropped int
}

func newLane(epoch time.Time, capacity int) *lane {
	return &lane{epoch: epoch, spans: make([]span, 0, capacity), nameID: map[string]uint16{}}
}

// StartSpan opens a span. The tuner opens its tune:<collective> span
// as a root (obs.NoSpan); here a span without a parent goes under the
// innermost open one, which puts the tuner's spans inside the job's.
func (l *lane) StartSpan(name string, parent obs.SpanID) obs.SpanID {
	if l == nil {
		return obs.NoSpan
	}
	if parent == obs.NoSpan {
		parent = obs.SpanID(l.cur)
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return obs.NoSpan
	}
	id, ok := l.nameID[name]
	if !ok {
		id = uint16(len(l.names))
		l.names = append(l.names, name)
		l.nameID[name] = id
	}
	l.spans = append(l.spans, span{name: id, parent: int32(parent), ctx: l.ctx, start: int64(time.Since(l.epoch))})
	l.cur = int32(len(l.spans))
	return obs.SpanID(l.cur)
}

func (l *lane) EndSpan(id obs.SpanID) {
	if l == nil || id == obs.NoSpan {
		return
	}
	s := &l.spans[id-1]
	s.end = int64(time.Since(l.epoch))
	if s.parent != 0 {
		l.spans[s.parent-1].child += s.end - s.start
	}
	l.cur = s.parent
}

// SetAttr drops attributes: the ledger needs intervals only, and the
// counts the tuner attaches are read from its Result.
func (l *lane) SetAttr(obs.SpanID, string, float64) {}

// begin opens a span under the innermost open one.
func (l *lane) begin(name string) obs.SpanID { return l.StartSpan(name, obs.NoSpan) }

// ledgerRow is one span name's total over a set of lanes.
type ledgerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// ledger sums spans by name. Because self time excludes children, the
// self column adds up to the time the root spans cover.
func ledger(lanes []*lane) (rows []ledgerRow, spans, dropped int) {
	byName := map[string]*ledgerRow{}
	for _, l := range lanes {
		if l == nil {
			continue
		}
		spans += len(l.spans)
		dropped += l.dropped
		for i := range l.spans {
			s := &l.spans[i]
			name := l.names[s.name]
			r := byName[name]
			if r == nil {
				r = &ledgerRow{name: name}
				byName[name] = r
			}
			r.count++
			r.total += time.Duration(s.end - s.start)
			r.self += time.Duration(s.end - s.start - s.child)
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, spans, dropped
}

// totals indexes ledger rows by span name.
func totals(rows []ledgerRow) map[string]ledgerRow {
	m := make(map[string]ledgerRow, len(rows))
	for _, r := range rows {
		m[r.name] = r
	}
	return m
}

// maxSpansOut bounds the span file: a traced serve_single run opens
// about a million spans, and writing them all would take longer than
// the run. The ledger is computed from every span either way.
const maxSpansOut = 100_000

// writeSpans writes the lanes as JSON lines, one span per line.
func writeSpans(path string, lanes []*lane) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for li, l := range lanes {
		if l == nil {
			continue
		}
		for i, s := range l.spans {
			if i == maxSpansOut {
				fmt.Fprintf(w, "{\"lane\":%d,\"truncated\":%d}\n", li, len(l.spans)-i)
				break
			}
			fmt.Fprintf(w, "{\"lane\":%d,\"id\":%d,\"parent\":%d,\"ctx\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				li, i+1, s.parent, s.ctx, l.names[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLedger renders the rows for people; it goes to stderr so the
// result stays the last line of stdout.
func printLedger(title string, rows []ledgerRow, covered time.Duration) {
	fmt.Fprintf(os.Stderr, "ledger %s (self time; roots cover %.3fs)\n", title, covered.Seconds())
	for _, r := range rows {
		share := 0.0
		if covered > 0 {
			share = float64(r.self) / float64(covered)
		}
		fmt.Fprintf(os.Stderr, "  %-22s n=%-8d total=%9.3fs self=%9.3fs %5.1f%%\n",
			r.name, r.count, r.total.Seconds(), r.self.Seconds(), 100*share)
	}
}
