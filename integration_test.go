package acclaim_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/heuristic"
	"acclaim/internal/netmodel"
	"acclaim/internal/rules"
	"acclaim/internal/traces"
)

// TestEndToEndPipeline walks the full Figure 1(b) production flow as a
// single test: job allocation -> ACCLAiM training with parallel
// collection -> JSON rule file -> selection replay against ground
// truth, compared with the library-default heuristics.
func TestEndToEndPipeline(t *testing.T) {
	const (
		jobNodes = 16
		jobPPN   = 2
		seed     = 3
	)
	machine := cluster.Theta()
	rng := newSeededRand(seed)
	alloc, err := cluster.BestEffort(machine, rng, jobNodes)
	if err != nil {
		t.Fatal(err)
	}
	env := netmodel.SampleEnv(rng, alloc)
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), env, alloc, benchmark.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	space := featspace.P2Grid(jobNodes, jobPPN, 8, 1<<20)
	tuner := core.New(core.Config{
		Space:     space,
		Forest:    forest.Config{NTrees: 30, Seed: seed},
		Seed:      seed,
		Parallel:  true,
		BatchSize: 4,
	}, autotune.LiveBackend{Runner: runner})

	colls := []coll.Collective{coll.Bcast, coll.Allreduce}
	results := make(map[coll.Collective]*core.Result)
	for _, c := range colls {
		res, err := tuner.Tune(c)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("%v did not converge", c)
		}
		if res.Ledger.Testing != 0 {
			t.Errorf("%v charged test-set time", c)
		}
		results[c] = res
	}

	// Rule file round trip through disk.
	file, err := tuner.BuildRulesFile(results, "integration")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := file.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := rules.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Ground-truth comparison over the job's own cell, every grid
	// message size plus non-P2 sizes: the tuned selections should beat
	// the default heuristics in aggregate on this job.
	msgs := append([]int{}, space.Msgs...)
	msgs = append(msgs, 24, 3000, 50000, 700000)
	var tunedSum, defSum, n float64
	for _, c := range colls {
		tab := loaded.Tables[c.String()]
		for _, msg := range msgs {
			p := featspace.Point{Nodes: jobNodes, PPN: jobPPN, MsgBytes: msg}
			best := math.Inf(1)
			times := map[string]float64{}
			for _, alg := range coll.AlgorithmNames(c) {
				m, err := runner.Run(benchmark.Spec{Coll: c, Alg: alg, Point: p})
				if err != nil {
					t.Fatal(err)
				}
				times[alg] = m.MeanTime
				best = math.Min(best, m.MeanTime)
			}
			tunedAlg, err := tab.Select(p.Nodes, p.PPN, p.MsgBytes)
			if err != nil {
				t.Fatal(err)
			}
			tunedSum += times[tunedAlg] / best
			defSum += times[heuristic.Select(c, p)] / best
			n++
		}
	}
	tunedSD, defSD := tunedSum/n, defSum/n
	if tunedSD > defSD+0.01 {
		t.Errorf("tuned slowdown %.4f worse than default %.4f on the job cell", tunedSD, defSD)
	}
	if tunedSD > 1.15 {
		t.Errorf("tuned slowdown %.4f too far from optimal", tunedSD)
	}
}

// TestTraceDrivenCollectiveList checks the user-input path of
// cmd/acclaim -app: the collectives traces.Collectives names for an
// application cover every collective its synthesised trace calls, so
// replaying the trace never falls back to an untuned collective.
func TestTraceDrivenCollectiveList(t *testing.T) {
	tr, err := traces.Synthesize("AMG", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := traces.Collectives("AMG")
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[coll.Collective]bool{}
	for _, c := range want {
		wantSet[c] = true
	}
	shares := tr.CollectiveShare()
	if len(shares) == 0 {
		t.Fatal("trace calls no collectives")
	}
	for c := range shares {
		if !wantSet[c] {
			t.Errorf("trace calls %v, which traces.Collectives(\"AMG\") omits", c)
		}
	}
}

// update regenerates testdata/live_job.golden:
//
//	go test -run LiveJobDeterministic -update .
var update = flag.Bool("update", false, "rewrite the live-job golden file")

// TestLiveJobDeterministic is the tuner-level determinism gate. Each
// row is one small job: "live" as cmd/acclaim runs it (core.Tuner.Tune
// per collective, then core.Tuner.JobFile on the job cell), "replay" as
// a tuning service runs it over a precollected dataset
// (core.Tuner.TuneAll on a dataset.Replay, then BuildRulesFile). Each
// job writes the same bytes and charges the same machine time at
// GOMAXPROCS 1 and 2 and at forest Workers 1, 2 and 4. The live job's
// rule file and machine-time bits are also pinned across commits by
// testdata/live_job.golden, so a diff there is a change to what a
// production job computes.
func TestLiveJobDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, job := range []struct {
		name   string
		run    func(t *testing.T, workers int) ([]byte, float64)
		golden string
	}{
		{"live", liveJob, filepath.Join("testdata", "live_job.golden")},
		{"replay", replayJob, ""},
	} {
		t.Run(job.name, func(t *testing.T) {
			var want []byte
			var wantMachine float64
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2, 4} {
					got, machine := job.run(t, workers)
					if want == nil {
						want, wantMachine = got, machine
						continue
					}
					if !bytes.Equal(got, want) {
						t.Errorf("GOMAXPROCS=%d Workers=%d: rule file differs", procs, workers)
					}
					if math.Float64bits(machine) != math.Float64bits(wantMachine) {
						t.Errorf("GOMAXPROCS=%d Workers=%d: machine time %v, want %v", procs, workers, machine, wantMachine)
					}
				}
			}
			if job.golden != "" {
				checkGolden(t, job.golden, fmt.Appendf(nil, "machine_us %016x\n%s", math.Float64bits(wantMachine), want))
			}
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this run's output (first line: machine-time bits); rerun with -update only if the change is intended", path)
	}
}

// liveJob tunes two collectives on an 8-node x 4-ppn allocation, runs
// the production job pipeline on the job cell, and returns the rule
// file's bytes and the machine time charged: the tuning ledgers, then
// the cell ledgers, each in list order.
func liveJob(t *testing.T, workers int) ([]byte, float64) {
	t.Helper()
	const nodes, ppn, seed = 8, 4, 5
	rng := newSeededRand(seed)
	alloc, err := cluster.BestEffort(cluster.Theta(), rng, nodes)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.SampleEnv(rng, alloc), alloc, benchmark.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tuner := core.New(core.Config{
		Space:         featspace.P2Grid(nodes, ppn, 8, 1<<16),
		Forest:        forest.Config{NTrees: 20, Seed: seed, Workers: workers},
		Seed:          seed,
		Parallel:      true,
		BatchSize:     4,
		MaxIterations: 12,
	}, autotune.LiveBackend{Runner: runner})
	colls := []coll.Collective{coll.Bcast, coll.Allreduce}
	results, err := tuner.TuneAll(colls)
	if err != nil {
		t.Fatal(err)
	}
	var machine float64
	for _, c := range colls {
		machine += results[c].Ledger.Collection
	}
	file, cells, err := tuner.JobFile(results, colls, nodes, ppn, "determinism")
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range cells {
		machine += ex.Ledger.Collection
	}
	var buf bytes.Buffer
	if err := file.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), machine
}

// replayJob collects a dataset on the TopologyTwoPairs allocation,
// tunes two collectives over its replay with TuneAll, and returns the
// bytes of the rule file BuildRulesFile emits and the machine time
// charged.
func replayJob(t *testing.T, workers int) ([]byte, float64) {
	t.Helper()
	const seed = 5
	alloc := cluster.TopologyTwoPairs()
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, benchmark.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	space := featspace.P2Grid(16, 2, 8, 1<<12)
	ds, err := dataset.Collect(runner, space.Points(), dataset.CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuner := core.New(core.Config{
		Space:  space,
		Forest: forest.Config{NTrees: 20, Seed: seed, Workers: workers},
		// The replay holds only the grid's P2 points.
		NonP2Every:    -1,
		Seed:          seed,
		Parallel:      true,
		BatchSize:     4,
		MaxIterations: 12,
	}, &dataset.Replay{DS: ds, Alloc: alloc})
	results, err := tuner.TuneAll([]coll.Collective{coll.Bcast, coll.Allreduce})
	if err != nil {
		t.Fatal(err)
	}
	var machine float64
	for _, c := range []coll.Collective{coll.Bcast, coll.Allreduce} {
		machine += results[c].Ledger.Collection
	}
	file, err := tuner.BuildRulesFile(results, "determinism")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := file.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), machine
}
