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
// Ranks run on the coroutines of an Engine. An engine runs simulations
// one after another on the calling goroutine and keeps its coroutines
// and scheduler arrays between them, so a worker that simulates a whole
// batch holds one engine, and Run is a single simulation on a fresh
// one. An engine is not for concurrent use, and nothing it started
// outlives its Close. A result does not depend on what the engine ran
// before: FuzzRunDifferential runs every case on one warm engine too.
//
// Buffers may omit their backing bytes (timing-only mode) so large
// exhaustive benchmark sweeps do not pay for megabyte memcpy traffic;
// the virtual-time accounting is identical either way.
//
// Every schedule the tuner benchmarks runs here, so the host cost of
// one simulated rank and of one simulated message is kept to a constant
// with no allocation. On a warm engine a rank reuses a parked coroutine,
// with the stack it grew, and the engine's arrays. A Comm reuses the
// wire time of the last (destination, size) it priced, which is exact
// because netmodel's Transfer is a pure function; an in-flight message
// is a pointer-free 24-byte arena slot (length, arrival, FIFO link),
// with data-mode payloads in a side table the timing-only path never
// touches. TestClockGolden pins the resulting clocks across commits.
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

// transport moves stamped messages between ranks, FIFO per (dst, src)
// pair (MPI's non-overtaking guarantee); take blocks until a message
// from src is pending at dst. A message is its logical length n, its
// payload (nil in timing-only mode) and the virtual time it arrives at.
// *sched is the implementation an Engine uses; the seam exists so
// oracle_test.go can drive the same Comm over goroutines and mailboxes.
type transport interface {
	put(src, dst, n int, data []byte, arrival float64)
	take(dst, src int) (n int, data []byte, arrival float64)
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

	// The last (destination, bytes) Send priced and its wire time.
	// Transfer is a pure function, so reusing it is exact. Ring
	// schedules send every message to one neighbour at one size and
	// reuse it on over 99 % of their sends; the others change
	// destination almost every step and rarely do.
	lastDst, lastN int
	lastWire       float64
}

// newComm returns rank's handle on a job carried by tr.
func newComm(tr transport, model *netmodel.Model, rank int) Comm {
	return Comm{tr: tr, model: model, rank: rank, lastDst: -1}
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
	if dst != c.lastDst || buf.N != c.lastN {
		c.lastDst, c.lastN = dst, buf.N
		c.lastWire = c.model.Transfer(c.rank, dst, buf.N)
	}
	// Clone data so sender reuse of the buffer cannot corrupt delivery.
	var data []byte
	if buf.Data != nil {
		data = buf.Clone().Data
	}
	c.tr.put(c.rank, dst, buf.N, data, c.clock+c.lastWire)
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
	n, data, arrival := c.tr.take(c.rank, src)
	if arrival > c.clock {
		c.clock = arrival
	}
	c.recvd++
	return Buf{N: n, Data: data}
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

// Engine runs simulations one after another on the calling goroutine.
// Between runs it keeps its rank coroutines, parked with the stacks
// they grew, and its scheduler arrays, so a worker that simulates a
// whole batch on one engine pays for a rank's coroutine once rather
// than once per run. A result does not depend on what the engine ran
// before. The zero value is ready to use; an Engine must not be copied
// after first use and is not for concurrent use. Close stops every
// coroutine, so nothing an engine started outlives it.
type Engine struct {
	s sched
}

// Run executes fn once per rank, each with a fresh Comm starting at
// clock 0, and returns when all have finished. A panic in any rank ends
// the run and is returned as an error naming the rank; if every
// unfinished rank is blocked in Recv the error names the blocked ranks
// and the sources they wait on. Either way the remaining ranks are
// unwound before Run returns, and the engine stays usable. On a nil
// *Engine, Run is the package-level Run.
func (e *Engine) Run(model *netmodel.Model, fn func(*Comm)) (Result, error) {
	if e == nil {
		return Run(model, fn)
	}
	return run(e, model, fn)
}

// Close ends every coroutine of the engine and drops its arrays. The
// engine may be used again afterwards, as if new.
func (e *Engine) Close() {
	e.s.close()
	*e = Engine{}
}

// Run is one run on a fresh engine: it executes fn once per rank and
// reports failures as Engine.Run does. Nothing it starts outlives it.
// The engine is one-shot: a rank's coroutine ends with the rank rather
// than parking for a run that will not come.
func Run(model *netmodel.Model, fn func(*Comm)) (Result, error) {
	e := Engine{s: sched{once: true}}
	defer e.Close()
	return run(&e, model, fn)
}

// run is a variable only so that the differential fuzz target can route
// internal/coll's schedules, which call Engine.Run, through the oracle
// runtime in oracle_test.go; nothing outside _test.go assigns it.
var run = coroutines

// coroutines runs fn on the engine's coroutines.
func coroutines(e *Engine, model *netmodel.Model, fn func(*Comm)) (Result, error) {
	return e.s.run(model, fn)
}

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
