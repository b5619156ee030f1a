// Package lockcheck is the golden fixture for the lockcheck analyzer:
// guarded-field comments, unlocked access, a guard comment naming a
// non-existent mutex, and function-style sync/atomic calls.
package lockcheck

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu

	state int // want `'guarded by missing' names no field of counter` -- guarded by missing
}

func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) peek() int {
	return c.n // want `counter\.n \(guarded by mu\) accessed in peek, which never locks it`
}

// snapshot runs before any goroutine exists, so the unlocked read is
// suppressed with a reason.
//
//acclaim:allow lockcheck construction-time read, no concurrent writers yet
func (c *counter) snapshot() int {
	return c.n
}

type table struct {
	mu   sync.RWMutex
	rows []string // guarded by mu
}

func (t *table) count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

func (t *table) first() string {
	return t.rows[0] // want `table\.rows \(guarded by mu\) accessed in first, which never locks it`
}

type gauge struct {
	hits int64
	live atomic.Int64
}

func (g *gauge) hit() {
	atomic.AddInt64(&g.hits, 1) // want `call to atomic\.AddInt64: use a typed atomic so the word cannot also be accessed plainly`
	g.live.Add(1)               // typed atomic: clean
}
