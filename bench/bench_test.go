package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// spec is BENCHMARK.json as the driver reads it.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables: BENCHMARK.json and the metric tables of
// metrics.go name the same metrics with the same units, in order.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q with a why of at most 200", i, w.Name, len(w.Why), workloads[i])
		}
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, metrics.go has %d+%d", len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range s.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s (%s), metrics.go has %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		if !nameRe.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated name %q", m.Name)
		}
		seen[m.Name] = true
	}
	for i, m := range s.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), metrics.go has %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if !nameRe.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated name %q", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestWorkloadsQuick runs every workload at the quick size, plain and
// traced: exactly the named metrics come out, each with its unit, no
// check fails, every end-to-end value is non-zero, and the traced run's
// ledger closes.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := runCfg{workload: w, seed: 7, seconds: 0.4, quick: true, out: t.TempDir()}
			for _, trace := range []bool{false, true} {
				cfg.trace = trace
				line, err := runOne(cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s missing or unit %q, want %q", trace, d.name, m.Unit, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v", d.name, m.Value)
					}
				}
				if !trace {
					continue
				}
				// The ledger closes: what the named spans do not explain is
				// under a tenth of the end-to-end time. Tracing overhead is
				// under 5% at full size (README.md); the quick runs are a few
				// milliseconds per job, so only a gross overhead fails here.
				if v := line.Metrics["bench.ledger_residual_share"].Value; v > 0.10 {
					t.Errorf("ledger residual share %.3f > 0.10", v)
				}
				if v := line.Metrics["bench.trace_overhead_share"].Value; v > 0.25 {
					t.Errorf("trace overhead share %.3f > 0.25", v)
				}
				if v := line.Metrics["bench.spans"].Value; v == 0 {
					t.Error("traced run recorded no span")
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 7, 1, 3, 8, 2, 9, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
