package simmpi

import (
	"fmt"
	"sync"

	"acclaim/internal/netmodel"
)

// This file keeps the runtime Run used before the coroutine scheduler —
// a goroutine per rank, a mutex + condition variable + map mailbox per
// rank — as the differential oracle. It shares nothing with sched.go
// beyond Comm's clock arithmetic, and it resumes ranks in whatever order
// the Go scheduler picks, so agreement with Run (FuzzRunDifferential in
// fuzz_test.go) checks both the scheduler's bookkeeping and the claim
// that the result does not depend on the order ranks are resumed in.

// mailbox holds pending messages for one rank, matched by source rank in
// FIFO order per source.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[int][]posted
}

// posted is one message waiting in a mailbox.
type posted struct {
	n       int
	data    []byte
	arrival float64
}

func newMailbox() *mailbox {
	mb := &mailbox{pending: make(map[int][]posted)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// mailboxes is the oracle's transport: one mailbox per rank.
type mailboxes []*mailbox

func (mbs mailboxes) put(src, dst, n int, data []byte, arrival float64) {
	mb := mbs[dst]
	mb.mu.Lock()
	mb.pending[src] = append(mb.pending[src], posted{n, data, arrival})
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

func (mbs mailboxes) take(dst, src int) (int, []byte, float64) {
	mb := mbs[dst]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.pending[src]) == 0 {
		mb.cond.Wait()
	}
	q := mb.pending[src]
	m := q[0]
	if len(q) == 1 {
		delete(mb.pending, src)
	} else {
		mb.pending[src] = q[1:]
	}
	return m.n, m.data, m.arrival
}

// RunOracle has Run's contract for programs that terminate: it hangs
// where Run reports a deadlock or a panic with a peer waiting on it.
func RunOracle(model *netmodel.Model, fn func(*Comm)) (Result, error) {
	n := model.Ranks()
	mail := make(mailboxes, n)
	for i := range mail {
		mail[i] = newMailbox()
	}
	comms := make([]Comm, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		comms[r] = newComm(mail, model, r)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("simmpi: rank %d panicked: %v", r, p)
				}
			}()
			fn(&comms[r])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	return collect(comms), nil
}

// UseOracle makes Run and Engine.Run execute on the oracle until the
// returned function is called, so a test can put the schedules of
// internal/coll — which reach the runtime only through Engine.Run — on
// either side of a comparison. Not for parallel tests.
func UseOracle() (restore func()) {
	run = func(_ *Engine, model *netmodel.Model, fn func(*Comm)) (Result, error) {
		return RunOracle(model, fn)
	}
	return func() { run = coroutines }
}
