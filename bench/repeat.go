package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles are Python's statistics.quantiles(xs, n=4), the driver's
// definition, so a spread computed here is the spread the driver sees.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// child runs one workload in a fresh process and parses its result line.
func child(cfg runCfg, seed int64, trace bool) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", cfg.out, "-testdata", cfg.testdata}
	if trace {
		args = append(args, "-trace", "1")
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("seed %d: result line: %w", seed, err)
	}
	return &line, nil
}

// setSummary is one set of repeated runs: the end-to-end metrics of n
// runs on n seeds, and the per-layer metrics of one traced run.
type setSummary struct {
	runs   map[string][]float64
	traced map[string]metricOut
}

func runSet(cfg runCfg, n int) (*setSummary, error) {
	s := &setSummary{runs: map[string][]float64{}}
	for i := 0; i < n; i++ {
		line, err := child(cfg, cfg.seed+int64(i), false)
		if err != nil {
			return nil, err
		}
		for name, m := range line.Metrics {
			s.runs[name] = append(s.runs[name], m.Value)
		}
	}
	line, err := child(cfg, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	s.traced = line.Metrics
	return s, nil
}

// benchmarkSpec is the part of BENCHMARK.json the agreement check reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeated is -repeat: it prints, per end-to-end metric, the median,
// the quartiles and their distance as a share of the median over n
// fresh-process runs, then the traced run's per-layer metrics. With
// sets > 1 it also fails unless every later set agrees with the first:
// no end-to-end median worse by more than its bound, and every metric
// that must repeat exactly identical.
func runRepeated(cfg runCfg, n, sets int) error {
	fp, _ := json.Marshal(fingerprint(cfg))
	fmt.Printf("env %s\n", fp)
	var all []*setSummary
	for k := 0; k < sets; k++ {
		s, err := runSet(cfg, n)
		if err != nil {
			return err
		}
		all = append(all, s)
		fmt.Printf("set %d: %s, %d runs, seeds %d..%d\n", k, cfg.workload, n, cfg.seed, cfg.seed+int64(n)-1)
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(s.runs[d.name])
			fmt.Printf("  %-16s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f  %s\n", d.name, q2, q1, q3, (q3-q1)/q2, d.unit)
		}
		for _, d := range perLayer {
			if m := s.traced[d.name]; m.Value != 0 {
				fmt.Printf("  %-32s %-14.6g %s\n", d.name, m.Value, d.unit)
			}
		}
	}
	if sets < 2 {
		return nil
	}

	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-sets needs the bounds of BENCHMARK.json: run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	disagree := 0
	for k := 1; k < sets; k++ {
		for _, m := range spec.EndToEnd {
			_, a, _ := quartiles(all[0].runs[m.Name])
			_, b, _ := quartiles(all[k].runs[m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			if worse > m.Bound {
				disagree++
				fmt.Printf("DISAGREE %s: set 0 median %g, set %d median %g, worse by %.3f > bound %.3f\n", m.Name, a, k, b, worse, m.Bound)
			}
		}
		for _, name := range exactMetrics {
			a, b := all[0].traced[name].Value, all[k].traced[name].Value
			if v, ok := all[0].runs[name]; ok {
				_, a, _ = quartiles(v)
				_, b, _ = quartiles(all[k].runs[name])
			}
			if a != b {
				disagree++
				fmt.Printf("DISAGREE %s: must repeat exactly, set 0 %v, set %d %v\n", name, a, k, b)
			}
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics disagree between sets", disagree)
	}
	fmt.Println("sets agree")
	return nil
}
