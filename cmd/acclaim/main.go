// Command acclaim is the end-to-end prototype of the paper's Figure
// 1(b): a user "submits a job" with the collectives their application
// uses; ACCLAiM acquires an allocation on the (simulated) machine,
// trains a model per collective with topology-aware parallel data
// collection, writes the MPICH-style JSON selection file, and then runs
// the application — reporting the collective speedup over the library's
// default heuristic selections and the break-even runtime.
//
// The steps after tuning are the production job pipeline, written once
// and shared with the determinism gate (TestLiveJobDeterministic) and
// examples/jobtuning: core.Tuner.JobFile verifies the job's own
// (nodes, ppn) cell exhaustively and builds the rule file, and
// benchmark.Runner.Replay prices the application's call sites under
// the compiled file and under the library defaults.
//
// Usage:
//
//	acclaim -nodes 32 -ppn 4 [-app LAMMPS | -collectives bcast,allreduce]
//	        [-out tuned.json] [-seed N] [-maxmsg bytes] [-run-report report.json]
//	        [-topology dragonfly|fat-tree|torus]
//	        [-scenario baseline|degraded-links|congestion-storm|hetero-nodes]
//
// The whole pipeline is instrumented through internal/obs: every
// tuning round emits fit/score/pick/collect spans, the job cell and
// the file build emit exhaustive.cell and rules.build spans, and the
// forest, scheduler, collection, and allocation layers report into one
// metrics registry. A per-phase summary table is printed when tuning ends;
// -run-report additionally dumps the span timeline, the per-collective
// convergence-variance series, and the final metric snapshot as JSON.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/netmodel"
	"acclaim/internal/obs"
	"acclaim/internal/ruleserver"
	"acclaim/internal/traces"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acclaim:", err)
		os.Exit(1)
	}
}

// run is the whole command. Every failure returns through it, so the
// deferred flush and close of the event log run on every path and a
// run that fails mid-tuning still leaves the lines written so far.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("acclaim", flag.ExitOnError)
	var (
		nodes     = fs.Int("nodes", 32, "job node count")
		ppn       = fs.Int("ppn", 4, "processes per node")
		app       = fs.String("app", "", "application name (derives the collective list from its trace)")
		collList  = fs.String("collectives", "", "comma-separated collective list (overrides -app)")
		out       = fs.String("out", "tuned.json", "output selection file")
		seed      = fs.Int64("seed", 1, "job seed (allocation + environment)")
		maxMsg    = fs.Int("maxmsg", 1<<20, "maximum tuned message size in bytes")
		runReport = fs.String("run-report", "", "write the tuning run's span timeline, convergence series, and metric snapshot to this JSON file")
		eventLog  = fs.String("event-log", "", "stream spans as JSONL to this file while the run executes (bounded; see obs.EventLog)")
		topoName  = fs.String("topology", "dragonfly", "interconnect topology: dragonfly, fat-tree, or torus")
		scenario  = fs.String("scenario", "baseline", "environment scenario: baseline, degraded-links, congestion-storm, or hetero-nodes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	colls, err := collectiveList(*app, *collList)
	if err != nil {
		return err
	}

	// --- Observability: one registry for every pipeline stage, one
	// trace for the tuning timeline, and — on request — a streaming
	// JSONL event log so the same spans leave the process live instead
	// of only landing in the end-of-run report.
	reg := obs.NewRegistry()
	trace := obs.NewTrace()
	var recorder obs.Recorder = trace
	var events *eventLogFile
	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			return err
		}
		events = newEventLogFile(f)
		defer events.close() // error paths; success checks close below
		events.Register(reg)
		recorder = obs.Tee(trace, events)
	}

	// --- Job submission: the scheduler hands us a best-effort
	// allocation; the job's dynamic environment is sampled from it.
	machine := cluster.Theta()
	rng := rand.New(rand.NewSource(*seed))
	alloc, err := cluster.BestEffortObs(machine, rng, *nodes, cluster.NewMetrics(reg))
	if err != nil {
		return err
	}
	topo, err := netmodel.TopologyByName(*topoName, machine)
	if err != nil {
		return err
	}
	scen, err := benchmark.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	env := scen.Apply(netmodel.SampleEnv(rng, alloc))
	fmt.Fprintf(stdout, "allocation: %d nodes across %d racks (%d pairs), %s topology, %v scenario, latency factor %.2f\n",
		alloc.Size(), alloc.RackSpan(), alloc.PairSpan(), topo.Name(), scen, env.LatencyFactor)

	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), env, alloc, benchmark.Config{Seed: *seed})
	if err != nil {
		return err
	}
	runner.Topology = topo
	runner.Metrics = benchmark.NewMetrics(reg)

	// --- Training: ACCLAiM's production configuration, instrumented.
	cfg := core.Production(featspace.P2Grid(*nodes, *ppn, 8, *maxMsg), *seed)
	cfg.Forest.Metrics = forest.NewMetrics(reg)
	cfg.Recorder = recorder
	cfg.Registry = reg
	tuner := core.New(cfg, autotune.LiveBackend{Runner: runner})

	wall := time.Now()
	results := make(map[coll.Collective]*core.Result, len(colls))
	var machineTime float64
	for _, c := range colls {
		res, err := tuner.Tune(c)
		if err != nil {
			return err
		}
		results[c] = res
		machineTime += res.Ledger.Collection
		fmt.Fprintf(stdout, "trained %-10v %3d samples, %6.2f s machine time, converged=%v\n",
			c, len(res.Order), res.Ledger.Collection/1e6, res.Converged)
	}
	fmt.Fprintf(stdout, "total training: %.2f s machine time (%.1f s wall on this host)\n",
		machineTime/1e6, time.Since(wall).Seconds())

	// --- Job-cell verification and configuration file generation:
	// exact winners at the job's own (nodes, ppn), model selections
	// everywhere else. It runs before the report is built so the cell's
	// spans and benchmark counts land in it and in the event log.
	file, cells, err := tuner.JobFile(results, colls, *nodes, *ppn, "theta-sim")
	if err != nil {
		return err
	}
	for _, ex := range cells {
		machineTime += ex.Ledger.Collection
	}

	// --- Observability report: per-phase breakdown table now, full
	// JSON (spans + convergence series + metrics) on request.
	report := core.BuildRunReport("theta-sim", results, trace, reg)
	report.Topology = topo.Name()
	report.Scenario = scen.String()
	if err := report.WriteSummary(stdout); err != nil {
		return err
	}
	if *runReport != "" {
		if err := report.WriteFile(*runReport); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote run report %s (%d spans, %d metrics)\n",
			*runReport, len(report.Spans), len(report.Metrics))
	}
	if events != nil {
		// Nothing records into the log any more: flush and close it
		// first, so the counts below are lines that reached the file.
		if err := events.close(); err != nil {
			return fmt.Errorf("event log %s: %w", *eventLog, err)
		}
		fmt.Fprintf(stdout, "event log %s: %d lines, %d dropped\n", *eventLog, events.Events(), events.Dropped())
	}

	if err := file.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d tables, job cell verified exhaustively)\n", *out, len(file.Tables))

	// --- Application execution: replay the application's calls to the
	// tuned collectives under the compiled rule file (the lock-free
	// lookup a deployed library would use) and under the defaults.
	appName := *app
	if appName == "" {
		appName = "LAMMPS"
	}
	tr, err := traces.Synthesize(appName, *nodes, *seed)
	if err != nil {
		return err
	}
	calls := slices.DeleteFunc(tr.Calls, func(call traces.Call) bool { return !slices.Contains(colls, call.Coll) })
	idx, err := ruleserver.Compile(file)
	if err != nil {
		return err
	}
	tuned, err := runner.Replay(calls, *nodes, *ppn, idx)
	if err != nil {
		return err
	}
	def, err := runner.Replay(calls, *nodes, *ppn, nil)
	if err != nil {
		return err
	}
	reportSpeedup(stdout, appName, tuned, def, machineTime)
	return nil
}

// reportSpeedup prints the application-level outcome: collective time
// under tuned vs default selections (microseconds in, seconds out) and
// the application runtime at which the tuning machine time is paid back.
// A trace that calls none of the tuned collectives has no time on either
// side and therefore no speedup to state.
func reportSpeedup(w io.Writer, app string, tuned, def, machineTime float64) {
	if tuned == 0 {
		fmt.Fprintf(w, "application %s: no tuned collective appears in the trace\n", app)
		return
	}
	speedup := def / tuned
	fmt.Fprintf(w, "application %s collective time: tuned %.2f s vs default %.2f s (%.3fx speedup)\n",
		app, tuned/1e6, def/1e6, speedup)
	if speedup > 1 {
		fmt.Fprintf(w, "break-even application runtime: %.2f hours\n", core.BreakEvenHours(machineTime, speedup))
	} else {
		fmt.Fprintln(w, "no collective speedup on this job; default selections were already optimal")
	}
}

// collectiveList resolves the user's collective list (Section V: the
// only extra input ACCLAiM needs). A collective named twice is an
// error: it would be tuned, and charged, twice.
func collectiveList(app, list string) ([]coll.Collective, error) {
	if list != "" {
		var out []coll.Collective
		for _, name := range strings.Split(list, ",") {
			c, err := coll.ParseCollective(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			if slices.Contains(out, c) {
				return nil, fmt.Errorf("collective %v listed twice in -collectives", c)
			}
			out = append(out, c)
		}
		return out, nil
	}
	if app != "" {
		return traces.Collectives(app)
	}
	return coll.Collectives(), nil
}

// eventLogFile is the -event-log destination: an obs.EventLog writing
// through a 64 KiB buffer into w.
type eventLogFile struct {
	*obs.EventLog
	bw     *bufio.Writer
	w      io.WriteCloser
	closed bool
}

func newEventLogFile(w io.WriteCloser) *eventLogFile {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &eventLogFile{EventLog: obs.NewEventLog(bw, 0), bw: bw, w: w}
}

// close flushes the buffer and closes w. It reports the log's first
// write error, the flush error and the close error; a second call does
// nothing and returns nil.
func (e *eventLogFile) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	return errors.Join(e.Err(), e.bw.Flush(), e.w.Close())
}
