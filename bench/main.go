// Command bench is the repository's end-to-end benchmark: one workload
// per process, for the tuning pipeline (tune_replay, job_live) and the
// serving pipeline (serve_batch, serve_single, serve_reload). It calls
// the program only through public functions and the existing
// core.Config.Recorder and autotune.Backend seams, checks every output
// against an oracle, and prints the metrics BENCHMARK.json names as the
// last line of standard output. README.md explains the metrics, the
// workloads and the functions it depends on.
//
//	bash bench/run.sh --workload serve_batch --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

var workloads = []string{"tune_replay", "job_live", "serve_batch", "serve_single", "serve_reload"}

// runCfg is one run's command line.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
	testdata string
}

// setups is how often set-up is repeated for the median of setup_s.
func (c runCfg) setups() int {
	if c.quick {
		return 1
	}
	return 3
}

func (c runCfg) spanFile() string {
	return filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
}

// result collects a run's metric values and its oracle verdicts.
type result struct {
	vals      map[string]float64
	attempted int
	failed    int
}

// check records one oracle verdict.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
}

// medianSetup runs set-up n times and returns the median duration in
// seconds. Every set-up but the last is torn down again at once; the
// last one's state is what the run uses.
func medianSetup(n int, setup func() (teardown func(), err error)) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
		// Collect what set-up discarded now, not at a moment the run's
		// allocation pattern picks: peak_rss_mb then repeats.
		runtime.GC()
	}
	return median(secs), nil
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, exactly these keys.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runOne runs a workload in this process and returns its result line.
func runOne(cfg runCfg) (*resultLine, error) {
	r := &result{vals: map[string]float64{}}
	var err error
	switch _, serve := serveShapes[cfg.workload]; {
	case serve:
		err = runServe(cfg, r)
	case cfg.workload == "tune_replay" || cfg.workload == "job_live":
		err = runTune(cfg, r)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	r.vals["peak_rss_mb"] = peakRSSMB()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := &resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := r.vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !cfg.trace && v == 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return line, nil
}

// peakRSSMB is VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// fingerprint describes the host and the build, so two result files can
// be told apart.
func fingerprint(cfg runCfg) map[string]any {
	fp := map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": "unknown", "dirty": false,
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace, "quick": cfg.quick,
	}
	if shape, ok := serveShapes[cfg.workload]; ok {
		fp["sizes"] = fmt.Sprintf("%+v pool=%d reload_period=%v windows=%d", shape, poolQueries, reloadPeriod, serveWindows)
	} else if cfg.quick {
		fp["sizes"] = fmt.Sprintf("%+v", quickTune)
	} else {
		fp["sizes"] = fmt.Sprintf("%+v", fullTune)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["commit"] = s.Value
			case "vcs.modified":
				fp["dirty"] = s.Value == "true"
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(ln, "model name"); ok {
				fp["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fp
}

// findTestdata locates the fixtures from the repository root (run.sh)
// or from the package directory (go test).
func findTestdata() (string, error) {
	for _, dir := range []string{filepath.Join("bench", "testdata"), "testdata"} {
		if _, err := os.Stat(filepath.Join(dir, "rules_a.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("bench/testdata/rules_a.json not found: run from the repository root")
}

func main() {
	var cfg runCfg
	var trace, repeat, sets int
	var genFixtures bool
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "every input is generated from this seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "small sizes, for bench_test.go")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory the traced run writes its spans to")
	flag.StringVar(&cfg.testdata, "testdata", "", "directory of rules_a.json and rules_b.json (default: found)")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times in fresh processes, seeds seed..seed+N-1, and print median and quartiles")
	flag.IntVar(&sets, "sets", 1, "with -repeat: run this many sets and fail unless they agree within BENCHMARK.json's bounds")
	flag.BoolVar(&genFixtures, "gen-fixtures", false, "rewrite testdata/rules_a.json and rules_b.json (see README.md)")
	flag.Parse()
	cfg.trace = trace != 0

	err := func() error {
		if cfg.seconds <= 0 {
			return errors.New("-seconds must be positive")
		}
		switch {
		case genFixtures:
			return writeFixtures(cfg.testdata)
		case repeat > 0:
			return runRepeated(cfg, repeat, sets)
		}
		fp, _ := json.Marshal(fingerprint(cfg))
		fmt.Fprintf(os.Stderr, "env %s\n", fp)
		line, err := runOne(cfg)
		if err != nil {
			return err
		}
		out, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		if !line.Correct {
			return fmt.Errorf("%d of %d checks failed", line.Failed, line.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
