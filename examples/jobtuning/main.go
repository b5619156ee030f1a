// Jobtuning: the full production pipeline of the paper's Figure 1(b),
// as a library user would script it — submit a job to a best-effort
// scheduler, train ACCLAiM for the application's collectives, verify
// the job's own cell and write the rule file, compare tuned vs default
// selections on the application's own communication mix, and decide
// whether tuning paid off (the Figure 15 break-even analysis).
//
// Run with: go run ./examples/jobtuning
package main

import (
	"fmt"
	"log"
	"math/rand"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/core"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/netmodel"
	"acclaim/internal/ruleserver"
	"acclaim/internal/traces"
)

const (
	jobNodes = 16
	jobPPN   = 4
	app      = "Quicksilver"
	seed     = 3
)

func main() {
	// The scheduler hands us nodes wherever it finds them; the job's
	// network environment follows from how scattered they are.
	machine := cluster.Theta()
	rng := rand.New(rand.NewSource(seed))
	alloc, err := cluster.BestEffort(machine, rng, jobNodes)
	if err != nil {
		log.Fatal(err)
	}
	env := netmodel.SampleEnv(rng, alloc)
	fmt.Printf("job: %d nodes on %d racks, effective latency factor %.2f\n",
		alloc.Size(), alloc.RackSpan(), env.LatencyFactor)

	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), env, alloc, benchmark.Config{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}

	// The only user input ACCLAiM needs: which collectives the app uses.
	colls, err := traces.Collectives(app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s uses: %v\n", app, colls)

	tuner := core.New(core.Config{
		Space:     featspace.P2Grid(jobNodes, jobPPN, 8, 1<<20),
		Forest:    forest.Config{NTrees: 30, Seed: seed},
		Seed:      seed,
		Parallel:  true,
		BatchSize: 4,
	}, autotune.LiveBackend{Runner: runner})

	results, err := tuner.TuneAll(colls)
	if err != nil {
		log.Fatal(err)
	}
	var trainTime float64
	for _, c := range colls {
		trainTime += results[c].Ledger.Collection
	}

	// The production job pipeline: verify the job's own cell
	// exhaustively, build the rule file, and replay the application's
	// collective mix under it and under the library defaults.
	file, cells, err := tuner.JobFile(results, colls, jobNodes, jobPPN, "jobtuning")
	if err != nil {
		log.Fatal(err)
	}
	for _, ex := range cells {
		trainTime += ex.Ledger.Collection
	}
	fmt.Printf("training and job-cell verification consumed %.2f s of machine time (no test set — Section IV-C)\n", trainTime/1e6)

	idx, err := ruleserver.Compile(file)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := traces.Synthesize(app, jobNodes, seed)
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := runner.Replay(tr.Calls, jobNodes, jobPPN, idx)
	if err != nil {
		log.Fatal(err)
	}
	def, err := runner.Replay(tr.Calls, jobNodes, jobPPN, nil)
	if err != nil {
		log.Fatal(err)
	}
	speedup := def / tuned
	fmt.Printf("one pass over the app's collectives: tuned %.2f s, default %.2f s (%.3fx)\n",
		tuned/1e6, def/1e6, speedup)

	// Break-even: the job saves (1 - 1/speedup) of its collective time;
	// it must run long enough for that to repay the training cost.
	if speedup <= 1 {
		fmt.Println("defaults were already optimal for this job; training cost is sunk")
		return
	}
	perPassSaving := def - tuned
	passes := trainTime / perPassSaving
	fmt.Printf("break-even after %.0f passes of the communication mix (R_min = T*s/(s-1) = %.2f h of collective time)\n",
		passes, trainTime*speedup/(speedup-1)/1e6/3600)
}
