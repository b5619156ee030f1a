package simmpi_test

import (
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// TestRingAllgatherAllocsScaleWithRanks gates the timing-only message
// path: a 128-rank ring allgather sends 128*127 messages, and its
// allocations must stay a fixed budget per rank (the coroutine, the
// Comm, the rank's buffers) rather than grow with the message count.
// The arena's put and take are annotated //acclaim:zeroalloc; this is
// their runtime half, with TestPutTakeZeroAlloc.
func TestRingAllgatherAllocsScaleWithRanks(t *testing.T) {
	const perRank = 16
	mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	for _, nodes := range []int{8, 32} {
		alloc, err := cluster.Contiguous(mach, 0, nodes)
		if err != nil {
			t.Fatal(err)
		}
		model, err := netmodel.New(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, 4)
		if err != nil {
			t.Fatal(err)
		}
		ranks := model.Ranks()
		var res simmpi.Result
		allocs := testing.AllocsPerRun(3, func() {
			res, err = coll.Exec(model, coll.Allgather, "ring", 4096, coll.Options{Op: simmpi.OpSum})
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := ranks * (ranks - 1); res.Sent != want {
			t.Fatalf("%d ranks: Sent = %d, want %d", ranks, res.Sent, want)
		}
		if allocs > perRank*float64(ranks) {
			t.Errorf("%d-rank ring allgather: %v allocations for %d messages, budget %d per rank",
				ranks, allocs, res.Sent, perRank)
		}
	}
}

// BenchmarkEngineSweep is the warm path the tuner's workers take: an
// 18-size sweep of a 128-rank recursive-doubling allreduce on one
// engine. The CI bench gate holds its allocs/op to the baseline, so
// creating coroutines or scheduler arrays per rank again, about 12
// allocations a rank, fails it.
func BenchmarkEngineSweep(b *testing.B) {
	model := engineModel(b, 32, 4)
	var e simmpi.Engine
	defer e.Close()
	sweep := func() {
		for i := 0; i < 18; i++ {
			if _, err := coll.ExecOn(&e, model, coll.Allreduce, "recursive_doubling", 1<<i, coll.Options{Op: simmpi.OpSum}); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
