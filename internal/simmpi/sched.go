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
// it keeps for the rest of the run.
type inbox struct {
	few   [maxFew]srcFifo
	nfew  int
	dense []fifo
}

// push appends arena slot i to src's FIFO at this rank; n is the rank
// count, the length of a dense row.
func (b *inbox) push(arena []slot, src, i int32, n int) {
	if b.dense == nil {
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
		b.dense = make([]fifo, n)
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
	if b.dense != nil {
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

// rankState is the scheduler's view of one rank.
type rankState struct {
	inbox inbox
	wait  int32                   // source the rank is blocked on, or notBlocked
	yield func(struct{}) bool     // suspends the rank; false tells it to unwind
	next  func() (struct{}, bool) // resumes the rank; false once it has returned
	stop  func()                  // unwinds a suspended rank; no-op once returned
}

// stopped is the panic value that unwinds a rank suspended in Recv when
// the run is abandoned.
type stopped struct{}

// sched is the cooperative runtime behind Run.
type sched struct {
	ranks []rankState
	arena []slot
	data  [][]byte // payloads of data-mode messages, by arena index
	free  int32    // head of the arena's free list, -1 when empty
	runq  []int32  // ranks unblocked by a Send, resumed last-in first-out
	err   error    // first rank panic
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
		suspend(r)
	}
}

// suspend parks a rank blocked in take until a put wakes it, and unwinds
// it instead if the run is abandoned.
func suspend(r *rankState) {
	if !r.yield(struct{}{}) {
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

// start creates rank r's coroutine. It runs nothing until first resumed.
func (s *sched) start(r int, c *Comm, fn func(*Comm)) {
	rs := &s.ranks[r]
	rs.next, rs.stop = iter.Pull(func(yield func(struct{}) bool) {
		rs.yield = yield
		defer func() {
			p := recover()
			if _, unwound := p.(stopped); p != nil && !unwound && s.err == nil {
				s.err = fmt.Errorf("simmpi: rank %d panicked: %v", r, p)
			}
		}()
		fn(c)
	})
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

// runCoroutines is Run. Ranks unblocked by a Send are resumed first,
// most recent first (its message is the one just written); when none is
// runnable the next never-started rank begins, in rank order. The order
// is a performance choice only — see the package comment.
func runCoroutines(model *netmodel.Model, fn func(*Comm)) (Result, error) {
	n := model.Ranks()
	// A rank joins runq only while blocked and at most once, so n slots
	// always suffice and put never grows it.
	s := &sched{ranks: make([]rankState, n), free: -1, runq: make([]int32, 0, n)}
	for r := range s.ranks {
		s.ranks[r].wait = notBlocked
	}
	comms := make([]Comm, n)
	started, done := 0, 0
	for done < n && s.err == nil {
		var r int
		if k := len(s.runq); k > 0 {
			r = int(s.runq[k-1])
			s.runq = s.runq[:k-1]
		} else if started < n {
			r = started
			started++
			comms[r] = newComm(s, model, r)
			s.start(r, &comms[r], fn)
		} else {
			s.err = s.deadlock()
			break
		}
		if _, suspended := s.ranks[r].next(); !suspended {
			done++
		}
	}
	if s.err != nil {
		for r := 0; r < started; r++ {
			s.ranks[r].stop()
		}
		return Result{}, s.err
	}
	return collect(comms), nil
}
