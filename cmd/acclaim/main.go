// Command acclaim is the end-to-end prototype of the paper's Figure
// 1(b): a user "submits a job" with the collectives their application
// uses; ACCLAiM acquires an allocation on the (simulated) machine,
// trains a model per collective with topology-aware parallel data
// collection, writes the MPICH-style JSON selection file, and then runs
// the application — reporting the collective speedup over the library's
// default heuristic selections and the break-even runtime.
//
// Usage:
//
//	acclaim -nodes 32 -ppn 4 [-app LAMMPS | -collectives bcast,allreduce]
//	        [-out tuned.json] [-seed N] [-maxmsg bytes] [-run-report report.json]
//	        [-topology dragonfly|fat-tree|torus]
//	        [-scenario baseline|degraded-links|congestion-storm|hetero-nodes]
//
// The whole pipeline is instrumented through internal/obs: every
// tuning round emits fit/score/pick/collect spans, and the forest,
// scheduler, collection, and allocation layers report into one metrics
// registry. A per-phase summary table is printed when tuning ends;
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
	"strings"
	"time"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/exhaustive"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/heuristic"
	"acclaim/internal/netmodel"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
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

	// --- Training: ACCLAiM with parallel wave collection.
	tuner := core.New(core.Config{
		Space:     featspace.P2Grid(*nodes, *ppn, 8, *maxMsg),
		Forest:    forest.Config{NTrees: 60, Seed: *seed, Metrics: forest.NewMetrics(reg)},
		Seed:      *seed,
		Parallel:  true,
		BatchSize: 4,
		// Production selections feed a whole job: spend a little more
		// collection time for a stabler model than the default
		// stall criterion accepts.
		Window:   6,
		Epsilon:  0.03,
		Recorder: recorder,
		Registry: reg,
	}, autotune.LiveBackend{Runner: runner})

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
		// Tuning has ended and nothing records into the log any more:
		// flush and close it first, so the counts below are lines that
		// reached the file.
		if err := events.close(); err != nil {
			return fmt.Errorf("event log %s: %w", *eventLog, err)
		}
		fmt.Fprintf(stdout, "event log %s: %d lines, %d dropped\n", *eventLog, events.Events(), events.Dropped())
	}

	// --- Job-cell verification: the tool knows the job's exact
	// (nodes, ppn), so it additionally benchmarks every algorithm at
	// the job's own configuration across the P2 message grid
	// (MPITune/OPTO-style, ~a minute of machine time) and prefers those
	// exact winners there. The ML model still covers every other
	// configuration (subcommunicators, later jobs on the allocation).
	space := tuner.Config().Space
	cellPts := make([]featspace.Point, 0, len(space.Msgs))
	for _, msg := range space.Msgs {
		cellPts = append(cellPts, featspace.Point{Nodes: *nodes, PPN: *ppn, MsgBytes: msg})
	}
	exact := make(map[coll.Collective]*exhaustive.Result, len(colls))
	for _, c := range colls {
		ex, err := exhaustive.Tune(autotune.LiveBackend{Runner: runner}, c, cellPts, nil)
		if err != nil {
			return err
		}
		exact[c] = ex
		machineTime += ex.Ledger.Collection
	}

	// --- Configuration file generation: model selections everywhere,
	// exact winners at the job cell.
	file := rules.NewFile("theta-sim")
	file.Comment = "generated by ACCLAiM (Go reproduction)"
	for c, res := range results {
		model := res.Model
		ex := exact[c]
		table := rules.BuildTable(c.String(), space, func(p featspace.Point) string {
			if p.Nodes == *nodes && p.PPN == *ppn {
				if alg, ok := ex.Best[featspace.Point{Nodes: p.Nodes, PPN: p.PPN, MsgBytes: p.MsgBytes}]; ok {
					return alg
				}
			}
			return model.Select(p)
		})
		if err := table.Validate(); err != nil {
			return err
		}
		file.Tables[c.String()] = table
	}
	if err := file.Validate(); err != nil {
		return err
	}
	if err := file.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d tables, job cell verified exhaustively)\n", *out, len(file.Tables))

	// --- Application execution: replay the application's collective
	// calls under tuned vs default selections.
	appName := *app
	if appName == "" {
		appName = "LAMMPS"
	}
	tuned, def, err := replayApp(runner, file, appName, *nodes, *ppn, *seed, colls)
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
		breakEvenHours := machineTime * speedup / (speedup - 1) / 1e6 / 3600
		fmt.Fprintf(w, "break-even application runtime: %.2f hours\n", breakEvenHours)
	} else {
		fmt.Fprintln(w, "no collective speedup on this job; default selections were already optimal")
	}
}

// collectiveList resolves the user's collective list (Section V: the
// only extra input ACCLAiM needs).
func collectiveList(app, list string) ([]coll.Collective, error) {
	if list != "" {
		var out []coll.Collective
		for _, name := range strings.Split(list, ",") {
			c, err := coll.ParseCollective(strings.TrimSpace(name))
			if err != nil {
				return nil, err
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

// replayApp prices every collective call of the application's trace
// under the tuned rule file and under the default heuristics, returning
// total collective time for one pass over the trace (microseconds). The
// rule file is compiled once into the serving engine and every tuned
// selection goes through the same lock-free lookup a deployed MPI
// library would use; collectives the file does not cover fall back to
// the default heuristic inside RunSelected, exactly like an untuned
// library call.
func replayApp(runner *benchmark.Runner, file *rules.File, app string, nodes, ppn int, seed int64, colls []coll.Collective) (tuned, def float64, err error) {
	tr, err := traces.Synthesize(app, nodes, seed)
	if err != nil {
		return 0, 0, err
	}
	srv, err := ruleserver.NewFromFile(file)
	if err != nil {
		return 0, 0, err
	}
	use := make(map[coll.Collective]bool, len(colls))
	for _, c := range colls {
		use[c] = true
	}
	for _, call := range tr.Calls {
		if !use[call.Coll] {
			continue
		}
		p := featspace.Point{Nodes: nodes, PPN: ppn, MsgBytes: call.MsgBytes}

		defAlg := heuristic.Select(call.Coll, p)
		dm, err := runner.Run(benchmark.Spec{Coll: call.Coll, Alg: defAlg, Point: p})
		if err != nil {
			return 0, 0, err
		}
		def += dm.MeanTime * float64(call.Count)

		tm, _, err := runner.RunSelected(call.Coll, srv, p)
		if err != nil {
			return 0, 0, err
		}
		tuned += tm.MeanTime * float64(call.Count)
	}
	return tuned, def, nil
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
