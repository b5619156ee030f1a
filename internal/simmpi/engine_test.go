package simmpi_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// engineModel builds a model of nodes x ppn ranks on contiguous nodes.
func engineModel(t testing.TB, nodes, ppn int) *netmodel.Model {
	t.Helper()
	mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	model, err := netmodel.New(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// sameRun fails the test unless a warm engine's result and error equal
// a one-shot Run's bit for bit.
func sameRun(t *testing.T, what string, got, want simmpi.Result, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: engine err %v, one-shot err %v", what, gotErr, wantErr)
	}
	if got.Sent != want.Sent || math.Float64bits(got.MaxClock) != math.Float64bits(want.MaxClock) ||
		len(got.Clocks) != len(want.Clocks) {
		t.Fatalf("%s: engine (sent %d, max %v, %d clocks), one-shot (sent %d, max %v, %d clocks)",
			what, got.Sent, got.MaxClock, len(got.Clocks), want.Sent, want.MaxClock, len(want.Clocks))
	}
	for r := range want.Clocks {
		if math.Float64bits(got.Clocks[r]) != math.Float64bits(want.Clocks[r]) {
			t.Fatalf("%s: rank %d clock %v, one-shot %v", what, r, got.Clocks[r], want.Clocks[r])
		}
	}
}

// panicAfterFanIn has every rank send to rank 0 and then wait on it.
// Rank 0 waits for the last rank and panics, so the run fails with most
// ranks suspended and, past eight ranks, with messages still pending in
// rank 0's by-source inbox row.
func panicAfterFanIn(c *simmpi.Comm) {
	n := c.Size()
	if c.Rank() == 0 {
		c.Recv(n - 1)
		panic("boom")
	}
	c.Send(0, simmpi.MakeBuf(64))
	c.Recv(0)
}

// deadlockRing has every rank receive from its predecessor first, so
// each is left waiting on the rank below it.
func deadlockRing(c *simmpi.Comm) {
	n := c.Size()
	c.Recv((c.Rank() + n - 1) % n)
	c.Send((c.Rank()+1)%n, simmpi.MakeBuf(8))
}

// fanIn has every rank send two messages to rank 0, which receives them
// source by source in reverse rank order, so all are pending at once.
func fanIn(c *simmpi.Comm) {
	n := c.Size()
	if c.Rank() != 0 {
		c.Send(0, simmpi.BytesBuf([]byte{byte(c.Rank())}))
		c.Send(0, simmpi.BytesBuf([]byte{^byte(c.Rank())}))
		return
	}
	for src := n - 1; src > 0; src-- {
		if a, b := c.Recv(src), c.Recv(src); a.Data[0] != byte(src) || b.Data[0] != ^byte(src) {
			panic(fmt.Sprintf("messages from %d carry %d and %d", src, a.Data[0], b.Data[0]))
		}
	}
}

// TestEngineReuseMatchesRun runs one engine through every collective and
// algorithm at rank counts that grow and shrink between 2 and 512, in
// data mode and without, with a panicking and a deadlocking schedule in
// the middle, each followed by a fan-in that fills the inbox rows the
// failure left behind. Every result must equal a one-shot Run of the
// same input, and after Close the engine leaves no goroutine behind.
func TestEngineReuseMatchesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	shapes := []struct{ nodes, ppn int }{{1, 2}, {16, 32}, {3, 3}, {8, 8}, {2, 1}, {13, 10}, {4, 4}}
	if testing.Short() {
		shapes[1] = struct{ nodes, ppn int }{16, 8}
	}
	var e simmpi.Engine
	k := 0
	for si, sh := range shapes {
		model := engineModel(t, sh.nodes, sh.ppn)
		n := model.Ranks()
		for _, c := range coll.Collectives() {
			for _, alg := range coll.AlgorithmNames(c) {
				opts := coll.Options{WithData: k%2 == 0, Op: simmpi.Op(k % 3), Root: k % n}
				msg := 1 + (k*977)%8192
				if opts.WithData {
					msg = 1 + k%23
				}
				k++
				what := fmt.Sprintf("%dx%d %v/%s msg=%d data=%v", sh.nodes, sh.ppn, c, alg, msg, opts.WithData)
				got, gotErr := coll.ExecOn(&e, model, c, alg, msg, opts)
				want, wantErr := coll.Exec(model, c, alg, msg, opts)
				if wantErr != nil {
					t.Fatalf("%s: %v", what, wantErr)
				}
				sameRun(t, what, got, want, gotErr, wantErr)
			}
		}
		if si == 2 || si == 5 {
			for _, fn := range []struct {
				name string
				fn   func(*simmpi.Comm)
			}{{"panic", panicAfterFanIn}, {"fan-in", fanIn}, {"deadlock", deadlockRing}, {"fan-in", fanIn}} {
				got, gotErr := e.Run(model, fn.fn)
				want, wantErr := simmpi.Run(model, fn.fn)
				if (wantErr == nil) != (fn.name == "fan-in") {
					t.Fatalf("%dx%d %s: one-shot Run returned %v", sh.nodes, sh.ppn, fn.name, wantErr)
				}
				sameRun(t, fmt.Sprintf("%dx%d %s", sh.nodes, sh.ppn, fn.name), got, want, gotErr, wantErr)
			}
		}
	}
	e.Close()
	if after := simmpi.SettledGoroutines(before); after > before {
		t.Errorf("goroutines: %d before, %d after Close", before, after)
	}
}

// TestWarmEngineAllocs gates what a warm engine pays per run: a 64-rank
// binomial bcast on an engine that has run it before allocates a fixed
// handful of objects (the result's clocks, the harness's buffers), far
// below one per rank.
func TestWarmEngineAllocs(t *testing.T) {
	const budget = 8
	model := engineModel(t, 16, 4)
	var e simmpi.Engine
	defer e.Close()
	exec := func() {
		if _, err := coll.ExecOn(&e, model, coll.Bcast, "binomial", 65536, coll.Options{Op: simmpi.OpSum}); err != nil {
			t.Fatal(err)
		}
	}
	exec()
	if allocs := testing.AllocsPerRun(20, exec); allocs > budget {
		t.Errorf("warm %d-rank bcast: %v allocations per run, budget %d", model.Ranks(), allocs, budget)
	}
}
