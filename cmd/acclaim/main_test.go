package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acclaim/internal/obs"
)

func TestReportSpeedup(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		tuned, def, machineTime float64
		want                    []string
		reject                  []string
	}{
		{
			name: "trace shares no collective with the tuned set",
			want: []string{"application AMG: no tuned collective appears in the trace"},
			// 0/0: used to print "NaNx speedup".
			reject: []string{"NaN", "speedup", "break-even"},
		},
		{
			name:  "tuned wins",
			tuned: 2e6, def: 3e6, machineTime: 3.6e9,
			want: []string{"tuned 2.00 s vs default 3.00 s (1.500x speedup)", "break-even application runtime: 3.00 hours"},
		},
		{
			name:  "default already optimal",
			tuned: 2e6, def: 2e6, machineTime: 3.6e9,
			want:   []string{"(1.000x speedup)", "default selections were already optimal"},
			reject: []string{"break-even"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			reportSpeedup(&b, "AMG", tc.tuned, tc.def, tc.machineTime)
			for _, w := range tc.want {
				if !strings.Contains(b.String(), w) {
					t.Errorf("output %q lacks %q", b.String(), w)
				}
			}
			for _, r := range tc.reject {
				if strings.Contains(b.String(), r) {
					t.Errorf("output %q contains %q", b.String(), r)
				}
			}
		})
	}
}

// flushFailWriter accepts nothing: the event log's buffer hides that
// until the flush at close.
type flushFailWriter struct{ closed bool }

func (w *flushFailWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (w *flushFailWriter) Close() error              { w.closed = true; return nil }

func TestEventLogFileCloseReportsFlushError(t *testing.T) {
	w := &flushFailWriter{}
	l := newEventLogFile(w)
	l.EndSpan(l.StartSpan("tune:bcast", obs.NoSpan))
	if l.Err() != nil {
		t.Fatal("buffered lines reported a write error before the flush")
	}
	if err := l.close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("close = %v, want the flush error", err)
	}
	if !w.closed {
		t.Error("close did not close the file after the failed flush")
	}
	if err := l.close(); err != nil {
		t.Errorf("second close = %v, want nil", err)
	}
}

// tinyRun is the argument list of a run that tunes one collective on a
// two-node job in a few tens of milliseconds.
func tinyRun(dir string, extra ...string) []string {
	return append([]string{"-nodes", "2", "-ppn", "1", "-collectives", "bcast",
		"-maxmsg", "64", "-out", filepath.Join(dir, "tuned.json")}, extra...)
}

func TestRunEventLogWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes")
	}
	err := run(tinyRun(t.TempDir(), "-event-log", "/dev/full"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "event log") {
		t.Fatalf("run = %v, want the event log's write error", err)
	}
}

// TestRunFailureKeepsEventLog: a run that fails after tuning (here, on
// an unwritable run report) still flushes every line the tuning wrote,
// each a complete JSON object.
func TestRunFailureKeepsEventLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	err := run(tinyRun(dir, "-event-log", path, "-run-report", filepath.Join(dir, "missing", "report.json")), io.Discard)
	if err == nil {
		t.Fatal("run with an unwritable run report succeeded")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	var rootEnded bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct {
			Ev string `json:"ev"`
			ID int    `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d %q: %v", lines+1, sc.Text(), err)
		}
		rootEnded = rootEnded || (line.Ev == "span_end" && line.ID == 1)
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || !rootEnded {
		t.Fatalf("event log has %d lines, tune:bcast span ended: %v", lines, rootEnded)
	}
}
