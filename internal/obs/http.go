package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promName flattens a dotted metric name into the Prometheus
// identifier charset.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), in registration order. Counters become
// `counter`, gauges and func metrics `gauge`. Histograms and HDR
// recorders render as a `histogram` over their occupied buckets with a
// `+Inf` catch-all, plus `_p50`/`_p90`/`_p99`/`_p999` quantile gauges
// (writePromHDR). Metrics Describe'd with a non-empty
// help string get a `# HELP` line before their `# TYPE` line;
// undescribed metrics render byte-identically to earlier versions.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	by := make(map[string]any, len(r.by))
	for k, v := range r.by {
		by[k] = v
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	for _, name := range names {
		pn := promName(name)
		if h := help[name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, h); err != nil {
				return err
			}
		}
		var err error
		switch m := by[name].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, m.Load())
		case *Gauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", pn, pn, m.Load())
		case funcMetric:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", pn, pn, m())
		case *HDRHistogram:
			err = writePromHDR(w, pn, m.Snapshot())
		case *HDRRecorder:
			err = writePromHDR(w, pn, m.Snapshot())
		case hdrFunc:
			err = writePromHDR(w, pn, m().Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHDR renders an HDR snapshot: cumulative buckets over the
// occupied part of the log-linear grid (the sparse form keeps a
// ~1100-bucket grid scrape-friendly), `_sum`/`_count`/`_dropped`, and
// the tail quantiles as `_p50`/`_p90`/`_p99`/`_p999` gauges so
// dashboards get exact-within-resolution percentiles without
// histogram_quantile interpolation error.
func writePromHDR(w io.Writer, pn string, s HDRSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%v\"} %d\n", pn, b.Le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %v\n%s_count %d\n", pn, s.Sum, pn, s.Count); err != nil {
		return err
	}
	if s.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE %s_dropped counter\n%s_dropped %d\n", pn, pn, s.Dropped); err != nil {
			return err
		}
	}
	for _, q := range []struct {
		suffix string
		v      float64
	}{{"p50", s.P50}, {"p90", s.P90}, {"p99", s.P99}, {"p999", s.P999}} {
		if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %v\n", pn, q.suffix, pn, q.suffix, q.v); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry snapshot as one JSON object keyed by
// metric name — the expvar value shape, so /debug/vars consumers can
// parse it unchanged.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Publish exposes the registry as one expvar variable under name, so
// it appears on the standard /debug/vars page alongside cmdline and
// memstats. Publishing the same name twice panics (expvar semantics).
func (r *Registry) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// ServeHTTP serves the registry over HTTP: Prometheus text by default,
// the expvar-style JSON object when the request asks for JSON (an
// `Accept: application/json` header or `?format=json`). Wire it at
// /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	wantJSON := req.URL.Query().Get("format") == "json" ||
		strings.Contains(req.Header.Get("Accept"), "application/json")
	if wantJSON {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := r.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
