package simmpi_test

import (
	"math"
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// dataBudget bounds the bytes a data-mode case may hold across all
// ranks, so the fuzzer spends its time on schedules rather than memcpy.
const dataBudget = 4 << 20

// execBoth runs one collective on Run and on the oracle runtime.
func execBoth(model *netmodel.Model, c coll.Collective, alg string, msg int, opts coll.Options) (got, want simmpi.Result, gotErr, wantErr error) {
	got, gotErr = coll.Exec(model, c, alg, msg, opts)
	restore := simmpi.UseOracle()
	defer restore()
	want, wantErr = coll.Exec(model, c, alg, msg, opts)
	return got, want, gotErr, wantErr
}

// FuzzRunDifferential holds the coroutine scheduler to the goroutine
// runtime it replaced (oracle_test.go) on every schedule of internal/coll:
// for an arbitrary collective, algorithm, shape (up to 16 nodes x 8 ppn,
// power-of-two or not), message size (up to 1 MiB), root, topology and
// data mode, each rank's final clock must match bit for bit and the
// message count exactly. In data mode each side also verifies the
// collective's postcondition against the same reference bytes, so the
// output buffers agree wherever the collective defines them. The oracle
// resumes ranks in whatever order the Go scheduler picks; agreement is
// the executable form of the package comment's Kahn-network claim.
//
// A third leg runs every case on one warm Engine, shared by every input
// of the fuzz run, so each case starts from whatever coroutines, inbox
// rows and arena the cases before it left behind; its result must equal
// the other two bit for bit as well.
func FuzzRunDifferential(f *testing.F) {
	warm := new(simmpi.Engine)
	f.Cleanup(warm.Close)

	// One seed per schedule, alternating P2 and non-P2 shapes and sizes.
	k := 0
	for ci, c := range coll.Collectives() {
		for ai := range coll.AlgorithmNames(c) {
			nodes, ppn, msg := uint8(3), uint8(1), uint32(8191)
			if k%2 == 1 {
				nodes, ppn, msg = 5, 2, 999
			}
			f.Add(uint8(ci), uint8(ai), nodes, ppn, msg, uint8(k), uint8(k), uint8(k), k%3 != 0)
			k++
		}
	}
	f.Add(uint8(0), uint8(1), uint8(15), uint8(7), uint32(1<<20-1), uint8(0), uint8(0), uint8(1), false) // 16x8 ring, 1 MiB
	f.Add(uint8(4), uint8(2), uint8(12), uint8(4), uint32(100), uint8(0), uint8(0), uint8(2), true)      // 13x5 scattered alltoall: dense inboxes

	topos := netmodel.TopologyNames()
	f.Fuzz(func(t *testing.T, rawColl, rawAlg, rawNodes, rawPPN uint8, rawMsg uint32, rawRoot, rawOp, rawTopo uint8, withData bool) {
		c := coll.Collectives()[int(rawColl)%coll.NumCollectives]
		algs := coll.AlgorithmNames(c)
		alg := algs[int(rawAlg)%len(algs)]
		nodes := 1 + int(rawNodes)%16
		ppn := 1 + int(rawPPN)%8
		if nodes*ppn < 2 {
			ppn = 2
		}
		n := nodes * ppn
		msg := 1 + int(rawMsg)%(1<<20)
		if withData {
			blocks := 1 // a rank's buffer is one msg-byte vector ...
			switch c {
			case coll.Allgather, coll.Alltoall, coll.Gather, coll.Scatter:
				blocks = n // ... or one msg-byte block per rank
			}
			msg = 1 + (msg-1)%max(1, dataBudget/(n*blocks))
		}
		opts := coll.Options{WithData: withData, Op: simmpi.Op(int(rawOp) % 3)}
		if coll.Rooted(c) {
			opts.Root = int(rawRoot) % n
		}

		mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
		alloc, err := cluster.Contiguous(mach, 0, nodes)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := netmodel.TopologyByName(topos[int(rawTopo)%len(topos)], mach)
		if err != nil {
			t.Fatal(err)
		}
		model, err := netmodel.NewWithTopology(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, ppn, topo)
		if err != nil {
			t.Fatal(err)
		}

		got, want, gotErr, wantErr := execBoth(model, c, alg, msg, opts)
		hot, hotErr := coll.ExecOn(warm, model, c, alg, msg, opts)
		if gotErr != nil || wantErr != nil || hotErr != nil {
			t.Fatalf("%v/%s %dx%d msg=%d root=%d data=%v: Run err %v, oracle err %v, warm engine err %v",
				c, alg, nodes, ppn, msg, opts.Root, withData, gotErr, wantErr, hotErr)
		}
		for _, leg := range []struct {
			name string
			res  simmpi.Result
		}{{"Run", got}, {"warm engine", hot}} {
			if leg.res.Sent != want.Sent {
				t.Fatalf("%v/%s %dx%d msg=%d: %s Sent = %d, oracle %d", c, alg, nodes, ppn, msg, leg.name, leg.res.Sent, want.Sent)
			}
			if math.Float64bits(leg.res.MaxClock) != math.Float64bits(want.MaxClock) {
				t.Fatalf("%v/%s %dx%d msg=%d: %s MaxClock = %v, oracle %v",
					c, alg, nodes, ppn, msg, leg.name, leg.res.MaxClock, want.MaxClock)
			}
			for r := range want.Clocks {
				if math.Float64bits(leg.res.Clocks[r]) != math.Float64bits(want.Clocks[r]) {
					t.Fatalf("%v/%s %dx%d msg=%d root=%d: %s rank %d clock = %v, oracle %v",
						c, alg, nodes, ppn, msg, opts.Root, leg.name, r, leg.res.Clocks[r], want.Clocks[r])
				}
			}
		}
	})
}
