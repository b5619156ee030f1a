// Package simmpi is a virtual-time message-passing runtime: the MPI
// substrate the collective algorithms in internal/coll execute on.
//
// Each MPI rank is a coroutine with a private virtual clock in
// microseconds. Sends are eager: the sender is charged a small injection
// overhead and the message is stamped with its arrival time
// (sendClock + alpha + bytes/beta from the netmodel). A receive blocks
// until a matching message exists and advances the receiver's clock to
// max(ownClock, arrivalTime). This reproduces the latency/bandwidth
// timing of the classic Hockney model over arbitrary communication DAGs
// while still moving real bytes, so every collective algorithm is
// simultaneously timed and checked for correctness.
//
// The computation is deterministic, so Run pays for no concurrency: one
// scheduler loop resumes one rank at a time and control moves only when
// a Recv finds its queue empty (sched.go). Ranks interact solely through
// blocking reads on per-(destination, source) FIFOs and never test a
// queue for emptiness, which makes the program a Kahn process network:
// the sequence of messages on every FIFO — and with it every clock,
// message count and output byte — is the same under any order in which
// runnable ranks are resumed. The goroutine-per-rank runtime this
// replaced survives in oracle_test.go as the differential oracle that
// holds the scheduler to that claim bit for bit.
//
// Buffers may omit their backing bytes (timing-only mode) so large
// exhaustive benchmark sweeps do not pay for megabyte memcpy traffic;
// the virtual-time accounting is identical either way.
package simmpi

import (
	"fmt"

	"acclaim/internal/netmodel"
)

// Buf is a message buffer of logical length N bytes. Data is either nil
// (timing-only mode) or a slice of exactly N bytes. All collective
// algorithms are written against Buf so a single implementation serves
// both correctness tests (with data) and fast timing sweeps (without).
type Buf struct {
	N    int
	Data []byte
}

// MakeBuf returns a timing-only buffer of n bytes.
func MakeBuf(n int) Buf { return Buf{N: n} }

// BytesBuf wraps a concrete byte slice.
func BytesBuf(b []byte) Buf { return Buf{N: len(b), Data: b} }

// HasData reports whether the buffer carries real bytes.
func (b Buf) HasData() bool { return b.Data != nil }

// Slice returns the sub-buffer [lo, hi). It panics on out-of-range
// bounds, mirroring Go slice semantics.
func (b Buf) Slice(lo, hi int) Buf {
	if lo < 0 || hi < lo || hi > b.N {
		panic(fmt.Sprintf("simmpi: Slice[%d:%d] of %d-byte buffer", lo, hi, b.N))
	}
	if b.Data == nil {
		return Buf{N: hi - lo}
	}
	return Buf{N: hi - lo, Data: b.Data[lo:hi]}
}

// Clone returns a deep copy of the buffer.
func (b Buf) Clone() Buf {
	if b.Data == nil {
		return Buf{N: b.N}
	}
	d := make([]byte, b.N)
	copy(d, b.Data)
	return Buf{N: b.N, Data: d}
}

// Concat returns a new buffer holding b followed by c. The result
// carries data only if both operands do.
func (b Buf) Concat(c Buf) Buf {
	if b.Data == nil || c.Data == nil {
		return Buf{N: b.N + c.N}
	}
	d := make([]byte, 0, b.N+c.N)
	d = append(d, b.Data...)
	d = append(d, c.Data...)
	return Buf{N: b.N + c.N, Data: d}
}

// CopyInto writes src into b starting at offset off. Lengths must fit.
// Buffers without data ignore the byte copy but still validate bounds.
func (b Buf) CopyInto(off int, src Buf) {
	if off < 0 || off+src.N > b.N {
		panic(fmt.Sprintf("simmpi: CopyInto offset %d length %d into %d-byte buffer", off, src.N, b.N))
	}
	if b.Data != nil && src.Data != nil {
		copy(b.Data[off:off+src.N], src.Data)
	}
}

// Op is a reduction operator over bytes. All ops are associative and
// commutative, which is what MPI requires for reductions and what lets
// every reduction algorithm produce bit-identical results regardless of
// combining order.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota // bytewise sum modulo 256
	OpMax           // bytewise maximum
	OpXor           // bytewise exclusive or
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpXor:
		return "xor"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Combine folds src into dst elementwise: dst = dst (op) src. Both
// buffers must have equal length. Timing-only buffers skip the byte
// work.
func (op Op) Combine(dst, src Buf) {
	if dst.N != src.N {
		panic(fmt.Sprintf("simmpi: Combine of %d-byte and %d-byte buffers", dst.N, src.N))
	}
	if dst.Data == nil || src.Data == nil {
		return
	}
	switch op {
	case OpSum:
		for i := range dst.Data {
			dst.Data[i] += src.Data[i]
		}
	case OpMax:
		for i := range dst.Data {
			if src.Data[i] > dst.Data[i] {
				dst.Data[i] = src.Data[i]
			}
		}
	case OpXor:
		for i := range dst.Data {
			dst.Data[i] ^= src.Data[i]
		}
	default:
		panic(fmt.Sprintf("simmpi: unknown op %d", int(op)))
	}
}

// message is an in-flight transfer.
type message struct {
	buf     Buf
	arrival float64 // virtual time at which the bytes are available
	next    int32   // arena link used by sched: next in the same FIFO or free list
}

// transport moves stamped messages between ranks, FIFO per (dst, src)
// pair (MPI's non-overtaking guarantee); take blocks until a message
// from src is pending at dst. *sched is the implementation Run uses; the
// seam exists so oracle_test.go can drive the same Comm over goroutines
// and mailboxes.
type transport interface {
	put(src, dst int, m message)
	take(dst, src int) message
}

// Comm is one rank's handle on the job's communication universe; the
// analogue of an MPI communicator bound to a rank. A Comm is confined to
// the rank function it was passed to and must not be shared.
type Comm struct {
	tr    transport
	model *netmodel.Model
	rank  int
	clock float64
	sent  int // messages sent, for diagnostics
	recvd int // messages received, for diagnostics
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.model.Ranks() }

// Clock returns the rank's current virtual time in microseconds.
func (c *Comm) Clock() float64 { return c.clock }

// Model exposes the underlying network model (read-only).
func (c *Comm) Model() *netmodel.Model { return c.model }

// Stats returns the number of messages this rank sent and received.
func (c *Comm) Stats() (sent, received int) { return c.sent, c.recvd }

// Compute advances the rank's clock by us microseconds of local work
// (reduction arithmetic, packing). Negative durations panic.
func (c *Comm) Compute(us float64) {
	if us < 0 {
		panic("simmpi: negative compute time")
	}
	c.clock += us
}

// Send transmits buf to rank dst. It is eager: the sender pays only the
// injection overhead and continues; the message arrives at
// clock + transfer(from, to, bytes). Sending to oneself panics — the
// collective algorithms never do it, so it always indicates a bug.
func (c *Comm) Send(dst int, buf Buf) {
	if dst == c.rank {
		panic(fmt.Sprintf("simmpi: rank %d sending to itself", c.rank))
	}
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("simmpi: send to rank %d of %d", dst, c.Size()))
	}
	c.clock += c.model.SendOverhead()
	arrival := c.clock + c.model.Transfer(c.rank, dst, buf.N)
	// Clone data so sender reuse of the buffer cannot corrupt delivery.
	c.tr.put(c.rank, dst, message{buf: buf.Clone(), arrival: arrival})
	c.sent++
}

// Recv blocks until a message from src is available, advances the clock
// to the message's arrival time, and returns the payload.
func (c *Comm) Recv(src int) Buf {
	if src == c.rank {
		panic(fmt.Sprintf("simmpi: rank %d receiving from itself", c.rank))
	}
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("simmpi: recv from rank %d of %d", src, c.Size()))
	}
	m := c.tr.take(c.rank, src)
	if m.arrival > c.clock {
		c.clock = m.arrival
	}
	c.recvd++
	return m.buf
}

// Sendrecv sends sbuf to dst and receives from src, modelling a
// full-duplex exchange (both directions overlap, as in MPI_Sendrecv on a
// bidirectional link).
func (c *Comm) Sendrecv(dst int, sbuf Buf, src int) Buf {
	c.Send(dst, sbuf)
	return c.Recv(src)
}

// Result summarises one collective execution across all ranks.
type Result struct {
	MaxClock float64   // completion time: the slowest rank's final clock
	Clocks   []float64 // per-rank final clocks
	Sent     int       // total messages sent
}

// Run executes fn once per rank, each with a fresh Comm starting at
// clock 0, and returns when all have finished. A panic in any rank ends
// the run and is returned as an error naming the rank; if every
// unfinished rank is blocked in Recv the error names the blocked ranks
// and the sources they wait on. Either way the remaining ranks are
// unwound before Run returns, so nothing outlives it.
func Run(model *netmodel.Model, fn func(*Comm)) (Result, error) {
	return run(model, fn)
}

// run is a variable only so that the differential fuzz target can route
// internal/coll's schedules, which call Run, through the oracle runtime
// in oracle_test.go; nothing outside _test.go assigns it.
var run = runCoroutines

// collect summarises the ranks' final state.
func collect(comms []Comm) Result {
	res := Result{Clocks: make([]float64, len(comms))}
	for r := range comms {
		c := &comms[r]
		res.Clocks[r] = c.clock
		res.Sent += c.sent
		if c.clock > res.MaxClock {
			res.MaxClock = c.clock
		}
	}
	return res
}
