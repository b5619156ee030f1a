// Quickstart: tune one collective with ACCLAiM on a small simulated
// cluster and query the result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

func main() {
	// 1. A job: 16 contiguous nodes of a Theta-like machine, calm network.
	alloc, err := cluster.Contiguous(cluster.Theta(), 0, 16)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc,
		benchmark.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 2. ACCLAiM's production tuner over the job's feature space (up to
	// 16 nodes, 4 ppn, 1 MiB messages), collecting benchmark waves in
	// parallel.
	tuner := core.New(core.Production(featspace.P2Grid(16, 4, 8, 1<<20), 1),
		autotune.LiveBackend{Runner: runner})

	// 3. Train a model for MPI_Bcast.
	res, err := tuner.Tune(coll.Bcast)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d benchmarks (%.2f s of machine time), converged=%v\n",
		len(res.Order), res.Ledger.Collection/1e6, res.Converged)

	// 4. Ask the model for selections — including a non-P2 message size.
	for _, p := range []featspace.Point{
		{Nodes: 16, PPN: 4, MsgBytes: 64},
		{Nodes: 16, PPN: 4, MsgBytes: 24576},
		{Nodes: 16, PPN: 4, MsgBytes: 1 << 20},
	} {
		fmt.Printf("bcast at %v -> %s\n", p, res.Model.Select(p))
	}

	// 5. Lower the model into an MPICH-style JSON selection file.
	file, err := tuner.BuildRulesFile(map[coll.Collective]*core.Result{coll.Bcast: res}, "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngenerated selection file:")
	if err := file.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 6. Install the file as the default tenant of the serving
	// registry — the lock-free, zero-allocation lookup path a deployed
	// MPI library would hit at every collective call (cmd/acclaim-serve
	// -rules does the same with a file on disk).
	reg := ruleserver.NewRegistry()
	if err := reg.Swap(ruleserver.DefaultTenant, file); err != nil {
		log.Fatal(err)
	}
	srv, _ := reg.Tenant(ruleserver.DefaultTenant)
	alg, ok := srv.Lookup(coll.Bcast, 16, 4, 100000)
	if !ok {
		log.Fatal("no rule for bcast")
	}
	fmt.Printf("\nserved selection for 100000-byte bcast: %s\n", alg)
	st := srv.Stats()
	fmt.Printf("serving snapshot v%d: %d tables, %d rules\n", st.Version, st.Tables, st.Rules)
	_ = rules.Unbounded
}
