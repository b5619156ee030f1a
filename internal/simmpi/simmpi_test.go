package simmpi

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"acclaim/internal/cluster"
	"acclaim/internal/netmodel"
)

func testModel(t testing.TB, nodes, ppn int) *netmodel.Model {
	t.Helper()
	mach := cluster.Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	alloc, err := cluster.Contiguous(mach, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netmodel.New(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBufBasics(t *testing.T) {
	b := BytesBuf([]byte{1, 2, 3, 4})
	if !b.HasData() || b.N != 4 {
		t.Fatal("BytesBuf wrong")
	}
	s := b.Slice(1, 3)
	if s.N != 2 || s.Data[0] != 2 || s.Data[1] != 3 {
		t.Errorf("Slice = %+v", s)
	}
	tb := MakeBuf(10)
	if tb.HasData() || tb.N != 10 {
		t.Fatal("MakeBuf wrong")
	}
	if ts := tb.Slice(2, 7); ts.N != 5 || ts.HasData() {
		t.Errorf("timing Slice = %+v", ts)
	}
}

func TestBufClone(t *testing.T) {
	b := BytesBuf([]byte{1, 2})
	c := b.Clone()
	c.Data[0] = 99
	if b.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
	if tc := MakeBuf(5).Clone(); tc.HasData() || tc.N != 5 {
		t.Error("timing Clone wrong")
	}
}

func TestBufConcat(t *testing.T) {
	a := BytesBuf([]byte{1, 2})
	b := BytesBuf([]byte{3})
	c := a.Concat(b)
	if c.N != 3 || c.Data[2] != 3 {
		t.Errorf("Concat = %+v", c)
	}
	// Mixed data/timing concat degrades to timing-only.
	m := a.Concat(MakeBuf(4))
	if m.N != 6 || m.HasData() {
		t.Errorf("mixed Concat = %+v", m)
	}
}

func TestBufCopyInto(t *testing.T) {
	dst := BytesBuf(make([]byte, 4))
	dst.CopyInto(1, BytesBuf([]byte{7, 8}))
	if dst.Data[1] != 7 || dst.Data[2] != 8 {
		t.Errorf("CopyInto = %v", dst.Data)
	}
	// Bounds are validated even in timing mode.
	defer func() {
		if recover() == nil {
			t.Error("out-of-range CopyInto should panic")
		}
	}()
	MakeBuf(2).CopyInto(1, MakeBuf(5))
}

func TestBufSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad Slice should panic")
		}
	}()
	MakeBuf(3).Slice(2, 5)
}

func TestOpCombine(t *testing.T) {
	sum := BytesBuf([]byte{250, 1})
	OpSum.Combine(sum, BytesBuf([]byte{10, 2}))
	if sum.Data[0] != 4 || sum.Data[1] != 3 { // 250+10 mod 256 = 4
		t.Errorf("OpSum = %v", sum.Data)
	}
	max := BytesBuf([]byte{5, 9})
	OpMax.Combine(max, BytesBuf([]byte{7, 3}))
	if max.Data[0] != 7 || max.Data[1] != 9 {
		t.Errorf("OpMax = %v", max.Data)
	}
	xor := BytesBuf([]byte{0xFF})
	OpXor.Combine(xor, BytesBuf([]byte{0x0F}))
	if xor.Data[0] != 0xF0 {
		t.Errorf("OpXor = %v", xor.Data)
	}
}

// Property: all ops are commutative and associative on random buffers.
func TestOpProperties(t *testing.T) {
	for _, op := range []Op{OpSum, OpMax, OpXor} {
		op := op
		f := func(a, b, c []byte) bool {
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			if len(c) < n {
				n = len(c)
			}
			a, b, c = a[:n], b[:n], c[:n]
			// (a op b) op c == a op (b op c), and a op b == b op a.
			ab := BytesBuf(append([]byte(nil), a...))
			op.Combine(ab, BytesBuf(b))
			ba := BytesBuf(append([]byte(nil), b...))
			op.Combine(ba, BytesBuf(a))
			for i := 0; i < n; i++ {
				if ab.Data[i] != ba.Data[i] {
					return false
				}
			}
			abc1 := BytesBuf(append([]byte(nil), ab.Data...))
			op.Combine(abc1, BytesBuf(c))
			bc := BytesBuf(append([]byte(nil), b...))
			op.Combine(bc, BytesBuf(c))
			abc2 := BytesBuf(append([]byte(nil), a...))
			op.Combine(abc2, bc)
			for i := 0; i < n; i++ {
				if abc1.Data[i] != abc2.Data[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("op %v: %v", op, err)
		}
	}
}

func TestPingPongTiming(t *testing.T) {
	model := testModel(t, 2, 1) // ranks 0 and 1 on different nodes, same rack
	const bytes = 1024
	res, err := Run(model, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, MakeBuf(bytes))
			c.Recv(1)
		case 1:
			b := c.Recv(0)
			if b.N != bytes {
				panic("wrong size")
			}
			c.Send(0, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected round trip: 2 * (overhead + alpha + bytes/bw).
	p := netmodel.DefaultParams()
	oneWay := p.SendOverhead + p.Latency[netmodel.IntraRack] + bytes/p.Bandwidth[netmodel.IntraRack]
	want := 2 * oneWay
	if math.Abs(res.MaxClock-want) > 1e-9 {
		t.Errorf("round trip = %v, want %v", res.MaxClock, want)
	}
	if res.Sent != 2 {
		t.Errorf("Sent = %d, want 2", res.Sent)
	}
}

func TestRecvWaitsForArrival(t *testing.T) {
	model := testModel(t, 2, 1)
	res, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(1000) // sender is busy first
			c.Send(1, MakeBuf(8))
		} else {
			b := c.Recv(0)
			_ = b
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver must not finish before 1000us + transfer.
	if res.Clocks[1] < 1000 {
		t.Errorf("receiver clock %v ignores sender compute", res.Clocks[1])
	}
}

func TestRecvDoesNotWaitIfAlreadyLater(t *testing.T) {
	model := testModel(t, 2, 1)
	res, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, MakeBuf(8))
		} else {
			c.Compute(5000)
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver clock should be exactly 5000: message already arrived.
	if res.Clocks[1] != 5000 {
		t.Errorf("receiver clock = %v, want 5000", res.Clocks[1])
	}
}

func TestFIFOPerSource(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, BytesBuf([]byte{1}))
			c.Send(1, BytesBuf([]byte{2}))
			c.Send(1, BytesBuf([]byte{3}))
		} else {
			for want := byte(1); want <= 3; want++ {
				b := c.Recv(0)
				if b.Data[0] != want {
					panic("out of order delivery")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDataIsolation(t *testing.T) {
	// Sender mutating its buffer after Send must not corrupt delivery.
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			buf := BytesBuf([]byte{42})
			c.Send(1, buf)
			buf.Data[0] = 0
		} else {
			if b := c.Recv(0); b.Data[0] != 42 {
				panic("send did not isolate data")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	model := testModel(t, 2, 1)
	res, err := Run(model, func(c *Comm) {
		peer := 1 - c.Rank()
		got := c.Sendrecv(peer, BytesBuf([]byte{byte(c.Rank())}), peer)
		if got.Data[0] != byte(peer) {
			panic("wrong exchange payload")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Full duplex: both ranks finish at overhead + transfer, not 2x.
	p := netmodel.DefaultParams()
	want := p.SendOverhead + p.Latency[netmodel.IntraRack] + 1/p.Bandwidth[netmodel.IntraRack]
	if math.Abs(res.MaxClock-want) > 1e-9 {
		t.Errorf("sendrecv time = %v, want %v", res.MaxClock, want)
	}
}

func TestIntraNodeFasterThanNetwork(t *testing.T) {
	model := testModel(t, 2, 2) // ranks 0,1 node 0; ranks 2,3 node 1
	timeBetween := func(a, b int) float64 {
		res, err := Run(model, func(c *Comm) {
			if c.Rank() == a {
				c.Send(b, MakeBuf(4096))
			} else if c.Rank() == b {
				c.Recv(a)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxClock
	}
	if ti, tn := timeBetween(0, 1), timeBetween(0, 2); ti >= tn {
		t.Errorf("intra-node %v not faster than network %v", ti, tn)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 must not deadlock: it does no communication.
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestSelfSendPanics(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(0, MakeBuf(1))
		}
	})
	if err == nil {
		t.Fatal("self-send should be reported as an error")
	}
}

func TestComputeNegativePanics(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(-1)
		}
	})
	if err == nil {
		t.Fatal("negative compute should be reported as an error")
	}
}

func TestStats(t *testing.T) {
	model := testModel(t, 2, 1)
	_, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, MakeBuf(1))
			c.Send(1, MakeBuf(1))
			s, r := c.Stats()
			if s != 2 || r != 0 {
				panic("sender stats wrong")
			}
		} else {
			c.Recv(0)
			c.Recv(0)
			s, r := c.Stats()
			if s != 0 || r != 2 {
				panic("receiver stats wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksFanIn(t *testing.T) {
	// 8 nodes x 4 ppn = 32 ranks all send to rank 0.
	model := testModel(t, 8, 4)
	n := model.Ranks()
	res, err := Run(model, func(c *Comm) {
		if c.Rank() == 0 {
			total := byte(0)
			for src := 1; src < n; src++ {
				b := c.Recv(src)
				total += b.Data[0]
			}
			if total != byte(n*(n-1)/2) {
				panic("fan-in sum wrong")
			}
		} else {
			c.Send(0, BytesBuf([]byte{byte(c.Rank())}))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n-1 {
		t.Errorf("Sent = %d, want %d", res.Sent, n-1)
	}
}

// settledGoroutines reports runtime.NumGoroutine once goroutines that
// have returned but not yet been reaped are gone.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

func TestDeadlockIsReported(t *testing.T) {
	before := runtime.NumGoroutine()
	model := testModel(t, 4, 1)
	unwound := 0
	_, err := Run(model, func(c *Comm) {
		defer func() { unwound++ }()
		switch c.Rank() {
		case 0:
			c.Recv(1) // 0 and 1 wait on each other
		case 1:
			c.Recv(0)
		case 2:
			c.Send(3, MakeBuf(1))
			c.Recv(3) // 3 never replies
		case 3:
			c.Recv(2)
		}
	})
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	for _, want := range []string{"deadlock", "rank 0 waits on 1", "rank 1 waits on 0", "rank 2 waits on 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "rank 3 waits") {
		t.Errorf("error %q names rank 3, which finished", err)
	}
	if unwound != 4 {
		t.Errorf("%d of 4 ranks ran their deferred calls", unwound)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("goroutines: %d before, %d after a deadlocked Run", before, after)
	}
}

func TestDeadlockListIsBounded(t *testing.T) {
	model := testModel(t, 16, 4)
	_, err := Run(model, func(c *Comm) { c.Recv((c.Rank() + 1) % c.Size()) })
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	if !strings.Contains(err.Error(), "and 56 more") || len(err.Error()) > 300 {
		t.Errorf("error for 64 blocked ranks = %q", err)
	}
}

func TestPanicWithWaitingPeer(t *testing.T) {
	before := runtime.NumGoroutine()
	model := testModel(t, 3, 1)
	_, err := Run(model, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Recv(2) // would wait forever on the goroutine runtime
		case 1:
			c.Recv(0)
		case 2:
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 panicked: boom") {
		t.Fatalf("err = %v, want rank 2's panic", err)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("goroutines: %d before, %d after a panicking Run", before, after)
	}
}

// TestInboxAgainstMap drives one inbox with random pushes and pops
// against per-source slices, across the switch from the scanned list to
// the by-source row: FIFO per source, a miss exactly when the source has
// nothing pending, and no row until more than maxFew sources are pending
// at once.
func TestInboxAgainstMap(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(1))
	var b inbox
	var arena []message
	want := make(map[int32][]int32)
	for step := 0; step < 20000; step++ {
		// Few sources at first, then all of them, then few again.
		span := int32(maxFew)
		if step > 5000 && step < 15000 {
			span = n
		}
		src := rng.Int31n(span)
		if rng.Intn(2) == 0 {
			i := int32(len(arena))
			arena = append(arena, message{next: -1})
			b.push(arena, src, i, n)
			want[src] = append(want[src], i)
		} else {
			i, ok := b.pop(arena, src)
			q := want[src]
			if ok != (len(q) > 0) || (ok && i != q[0]) {
				t.Fatalf("step %d: pop(%d) = %d, %v; pending %v", step, src, i, ok, q)
			}
			if ok {
				want[src] = q[1:]
			}
		}
		if step == 5000 && b.dense != nil {
			t.Fatalf("inbox went dense with at most %d sources pending", maxFew)
		}
	}
	if b.dense == nil {
		t.Error("inbox never went dense with up to 40 sources pending")
	}
}
