package simmpi

import (
	"fmt"
	"iter"
	"strings"

	"acclaim/internal/netmodel"
)

// The scheduler below runs every rank as an iter.Pull coroutine on the
// caller's goroutine: exactly one rank executes at a time and a switch
// is a direct hand-off, not a trip through the Go scheduler. With no
// second thread in play, messages need no mutex, condition variable,
// map or channel: they sit in one free-listed arena, linked into
// per-(dst, src) FIFOs by index. An arena slot holds no pointer, so the
// arena is never scanned by the garbage collector and a timing-only
// message costs 24 bytes; the payloads of data-mode messages sit in a
// side table at the same index.
//
// All of it belongs to an Engine and outlives one run. Coroutine r
// serves rank r of every run: when the rank function returns, the
// coroutine parks in its loop, keeping the stack it grew, and the next
// run resumes it with a new rank. Only a panic, or the unwinding of a
// failed run, ends a coroutine early; the next run replaces it. The
// rank states, Comms, run queue, arena and side table are reset for
// each run and keep their capacity, so a warm engine allocates nothing
// per rank. An engine is driven from one goroutine at a time and is not
// for concurrent use. Close stops every coroutine; nothing an engine
// started outlives it.

// slot is one in-flight message in the arena.
type slot struct {
	n       int     // logical length in bytes
	arrival float64 // virtual time at which the bytes are available
	next    int32   // next slot in the same FIFO or in the free list
	hasData bool    // the payload is in sched.data at this slot's index
}

// fifo is one (dst, src) queue: arena indices of its oldest and newest
// message. head < 0 marks it empty.
type fifo struct {
	head, tail int32
}

// srcFifo is a fifo tagged with its source rank, for the sparse inbox.
type srcFifo struct {
	src int32
	fifo
}

// maxFew is how many sources may have messages pending at one rank
// before its inbox switches from a scanned list to a by-source table.
// The tree, ring and pairwise schedules keep one or two sources pending
// per rank; only fan-ins (flat gather, scattered alltoall) exceed it.
const maxFew = 8

// inbox holds one rank's pending messages by source. Memory follows
// what is pending rather than the rank count: the non-empty FIFOs are a
// short unsorted list until more than maxFew sources are pending at
// once, and only then does the rank get a row indexed by source, which
// it keeps for the rest of the run. An empty dense row with capacity is
// a row kept from an earlier run, not in use.
type inbox struct {
	few   [maxFew]srcFifo
	nfew  int
	dense []fifo
}

// push appends arena slot i to src's FIFO at this rank; n is the rank
// count, the length of a dense row. A row left by an earlier run of the
// engine is reused when it is long enough.
func (b *inbox) push(arena []slot, src, i int32, n int) {
	if len(b.dense) == 0 {
		for k := 0; k < b.nfew; k++ {
			if f := &b.few[k]; f.src == src {
				arena[f.tail].next = i
				f.tail = i
				return
			}
		}
		if b.nfew < maxFew {
			b.few[b.nfew] = srcFifo{src: src, fifo: fifo{head: i, tail: i}}
			b.nfew++
			return
		}
		if cap(b.dense) >= n {
			b.dense = b.dense[:n]
		} else {
			b.dense = make([]fifo, n)
		}
		for k := range b.dense {
			b.dense[k].head = -1
		}
		for _, f := range b.few {
			b.dense[f.src] = f.fifo
		}
		b.nfew = 0
	}
	f := &b.dense[src]
	if f.head < 0 {
		f.head = i
	} else {
		arena[f.tail].next = i
	}
	f.tail = i
}

// pop unlinks and returns the arena slot of the oldest message from src,
// or false if none is pending.
func (b *inbox) pop(arena []slot, src int32) (int32, bool) {
	if len(b.dense) != 0 {
		f := &b.dense[src]
		i := f.head
		if i < 0 {
			return 0, false
		}
		f.head = arena[i].next
		return i, true
	}
	for k := 0; k < b.nfew; k++ {
		f := &b.few[k]
		if f.src != src {
			continue
		}
		i := f.head
		if i == f.tail {
			b.nfew--
			b.few[k] = b.few[b.nfew]
		} else {
			f.head = arena[i].next
		}
		return i, true
	}
	return 0, false
}

// notBlocked is rankState.wait for a rank that is not suspended in Recv.
const notBlocked = -1

// rankState is the scheduler's view of one rank and of the coroutine
// that runs it.
type rankState struct {
	inbox inbox
	wait  int32                   // source the rank is blocked on, or notBlocked
	busy  bool                    // the rank has started and not yet returned in this run
	yield func(struct{}) bool     // parks the coroutine; false tells it to end
	next  func() (struct{}, bool) // resumes the coroutine; nil while there is none
	stop  func()                  // ends the coroutine; nil while there is none
}

// stopped is the panic value that unwinds a rank suspended in Recv when
// the run is abandoned.
type stopped struct{}

// sched is the cooperative runtime of an Engine.
type sched struct {
	// ranks has the current run's length; ranks[:cap(ranks)] holds
	// every coroutine the engine has created.
	ranks   []rankState
	comms   []Comm
	arena   []slot
	data    [][]byte    // payloads of data-mode messages, by arena index
	free    int32       // head of the arena's free list, -1 when empty
	runq    []int32     // ranks unblocked by a Send, resumed last-in first-out
	fn      func(*Comm) // the current run's rank function
	abandon bool        // the run has failed: a suspended rank unwinds when resumed
	once    bool        // a one-shot engine: a coroutine ends with its rank instead of parking
	err     error       // the run's failure: the first rank panic, or a deadlock
}

// put links a message into dst's FIFO from src and wakes dst if it is
// blocked on src.
//
//acclaim:zeroalloc
func (s *sched) put(src, dst, n int, data []byte, arrival float64) {
	i := s.free
	if i >= 0 {
		s.free = s.arena[i].next
	} else {
		i = s.grow()
	}
	m := &s.arena[i]
	m.n, m.arrival, m.next, m.hasData = n, arrival, -1, data != nil
	if data != nil {
		s.keep(i, data)
	}
	r := &s.ranks[dst]
	r.inbox.push(s.arena, int32(src), i, len(s.ranks))
	if r.wait == int32(src) {
		r.wait = notBlocked
		s.runq = s.runq[:len(s.runq)+1]
		s.runq[len(s.runq)-1] = int32(dst)
	}
}

// take unlinks the oldest message from src at dst, suspending the rank
// until one is pending.
//
//acclaim:zeroalloc
func (s *sched) take(dst, src int) (n int, data []byte, arrival float64) {
	r := &s.ranks[dst]
	for {
		if i, ok := r.inbox.pop(s.arena, int32(src)); ok {
			m := &s.arena[i]
			if m.hasData {
				data = s.data[i]
				s.data[i] = nil // drops the payload reference
			}
			n, arrival = m.n, m.arrival
			m.next = s.free
			s.free = i
			return n, data, arrival
		}
		r.wait = int32(src)
		s.suspend(r)
	}
}

// suspend parks a rank blocked in take until a put wakes it, and unwinds
// it instead if the run is abandoned.
func (s *sched) suspend(r *rankState) {
	if !r.yield(struct{}{}) || s.abandon {
		panic(stopped{})
	}
}

// grow appends a slot to the arena and returns its index.
func (s *sched) grow() int32 {
	s.arena = append(s.arena, slot{})
	return int32(len(s.arena) - 1)
}

// keep stores the payload of the message in arena slot i.
func (s *sched) keep(i int32, data []byte) {
	if int(i) >= len(s.data) {
		s.data = append(s.data, make([][]byte, len(s.arena)-len(s.data))...)
	}
	s.data[i] = data
}

// reset readies the engine's arrays for an n-rank run of fn. Every
// array keeps its capacity, and ranks every coroutine.
func (s *sched) reset(n int, fn func(*Comm)) {
	if n > cap(s.ranks) {
		s.ranks = append(s.ranks[:cap(s.ranks)], make([]rankState, n-cap(s.ranks))...)
	}
	s.ranks = s.ranks[:n]
	for r := range s.ranks {
		rs := &s.ranks[r]
		rs.wait = notBlocked
		rs.inbox.nfew = 0
		rs.inbox.dense = rs.inbox.dense[:0]
	}
	if n > cap(s.comms) {
		s.comms = make([]Comm, n)
	}
	s.comms = s.comms[:n]
	// A rank joins runq only while blocked and at most once, so n slots
	// always suffice and put never grows it.
	if n > cap(s.runq) {
		s.runq = make([]int32, 0, n)
	}
	s.runq = s.runq[:0]
	s.arena = s.arena[:0]
	s.free = -1
	clear(s.data)
	s.data = s.data[:0]
	s.fn = fn
}

// spawn creates the coroutine that runs rank r in this run and in every
// later run of the engine. It runs nothing until first resumed. The rank
// function runs directly in the coroutine's body, which has no deferred
// call: a rank's stack is no deeper than before engines existed, and a
// deeper one would make more ranks grow their stacks. A panic ends the
// coroutine and comes out of next, where the scheduler recovers it; the
// next run spawns a new coroutine for the rank.
func (s *sched) spawn(r int) {
	s.ranks[r].next, s.ranks[r].stop = iter.Pull(func(yield func(struct{}) bool) {
		s.ranks[r].yield = yield
		for {
			s.fn(&s.comms[r])
			s.ranks[r].busy = false
			if s.once || !yield(struct{}{}) {
				return
			}
		}
	})
}

// drop forgets rank r's coroutine, which a panic has ended.
func (s *sched) drop(r int) {
	rs := &s.ranks[r]
	rs.busy = false
	rs.next, rs.stop, rs.yield = nil, nil, nil
}

// deadlock describes a state in which every unfinished rank is blocked.
func (s *sched) deadlock() error {
	const show = 8
	var b strings.Builder
	blocked := 0
	for r := range s.ranks {
		w := s.ranks[r].wait
		if w == notBlocked {
			continue
		}
		if blocked < show {
			if blocked > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "rank %d waits on %d", r, w)
		}
		blocked++
	}
	if blocked > show {
		fmt.Fprintf(&b, " and %d more", blocked-show)
	}
	return fmt.Errorf("simmpi: deadlock, no rank can proceed: %s", b.String())
}

// run is Engine.Run on the coroutines. On failure every suspended rank
// is resumed again until it has unwound, and the engine stays usable.
func (s *sched) run(model *netmodel.Model, fn func(*Comm)) (Result, error) {
	s.reset(model.Ranks(), fn)
	started := s.drive(model)
	var res Result
	err := s.err
	if err != nil {
		s.abandon = true
		for r := 0; r < started; r++ {
			for s.ranks[r].busy {
				s.unwind(r)
			}
		}
	} else {
		res = collect(s.comms)
	}
	s.fn, s.abandon, s.err = nil, false, nil
	return res, err
}

// drive resumes ranks until all have returned or the run fails, and
// returns how many it started. Ranks unblocked by a Send are resumed
// first, most recent first (its message is the one just written); when
// none is runnable the next never-started rank begins, in rank order.
// The order is a performance choice only — see the package comment. A
// rank's panic ends the run with the first error.
func (s *sched) drive(model *netmodel.Model) (started int) {
	n := len(s.ranks)
	cur := -1 // the rank being resumed
	defer func() {
		if cur < 0 {
			return // not a rank's panic: let it through
		}
		s.err = fmt.Errorf("simmpi: rank %d panicked: %v", cur, recover())
		s.drop(cur)
	}()
	for done := 0; done < n; {
		var r int
		if k := len(s.runq); k > 0 {
			r = int(s.runq[k-1])
			s.runq = s.runq[:k-1]
		} else if started < n {
			r = started
			started++
			s.comms[r] = newComm(s, model, r)
			s.ranks[r].busy = true
			if s.ranks[r].next == nil {
				s.spawn(r)
			}
		} else {
			s.err = s.deadlock()
			break
		}
		cur = r
		s.ranks[r].next()
		cur = -1
		if !s.ranks[r].busy {
			done++
		}
	}
	return started
}

// unwind resumes abandoned rank r, which panics out of its Recv with
// its deferred calls run; the panic ends its coroutine. A rank that
// recovers and suspends again stays busy and is resumed again.
func (s *sched) unwind(r int) {
	defer func() {
		if recover() != nil {
			s.drop(r)
		}
	}()
	s.ranks[r].next()
}

// close ends every coroutine. Each is parked in its loop between runs,
// so stopping it returns from the loop and ends its goroutine.
func (s *sched) close() {
	for _, rs := range s.ranks[:cap(s.ranks)] {
		if rs.stop != nil {
			rs.stop()
		}
	}
}
