// Package frozen is the golden fixture for the frozen analyzer:
// post-construction writes, interior aliases and escapes, constructor
// closures, atomic.Pointer auto-freezing, and suppression.
package frozen

import "sync/atomic"

// box is deep-immutable after construction.
//
//acclaim:frozen
type box struct {
	n     int
	items []int
}

// newBox is box's constructor; writes here and in its private helpers
// belong to the constructor closure.
func newBox(n int) *box {
	b := &box{n: n}
	fill(b)
	return b
}

// fill is unexported and called only from newBox, so it joins the
// closure: these writes are clean.
func fill(b *box) {
	b.items = append(b.items, b.n)
}

func (b *box) poke() {
	b.n = 42 // want `write to interior of frozen type box \(annotated //acclaim:frozen\) outside its constructor closure`
}

func (b *box) aliasWrite() {
	it := b.items
	it[0] = 9 // want `write to interior of frozen type box \(annotated //acclaim:frozen\) outside its constructor closure`
}

func (b *box) leakSlice() []int {
	return b.items // want `returns reference into box interior \(annotated //acclaim:frozen\); frozen interior must not escape`
}

func (b *box) leakAddr(sink chan *int) {
	sink <- &b.n // want `&-alias of box interior \(annotated //acclaim:frozen\) is sent on a channel; frozen interior must not escape`
}

func steal(p *int) { *p = 0 }

func (b *box) leakArg() {
	steal(&b.n) // want `&-alias of box interior \(annotated //acclaim:frozen\) is passed to a call; frozen interior must not escape`
}

// peek binds an interior alias to a local and only reads it: clean.
func (b *box) peek() int {
	it := b.items
	return it[0]
}

// copyMutate writes a value copy, not the shared object: clean.
func (b *box) copyMutate() int {
	c := *b
	c.n = 1
	return c.n
}

// reset runs in test teardown, after every reader is gone.
//
//acclaim:allow frozen test-only reset, no readers at teardown
func (b *box) reset() {
	b.n = 0
}

// snap carries no annotation: publishing it through the atomic.Pointer
// below is what freezes it.
type snap struct {
	total atomic.Uint64
	size  int
}

var cur atomic.Pointer[snap]

func publish(size int) {
	cur.Store(&snap{size: size})
}

func bump() {
	sn := cur.Load()
	sn.total.Add(1) // interior mutability via sync/atomic methods: clean
	sn.size++       // want `write to interior of frozen type snap \(published through atomic.Pointer\) outside its constructor closure`
}

// swapIn writes through the snapshot it just unpublished: readers that
// loaded it before the Swap may still hold it.
func swapIn(size int) {
	old := cur.Swap(&snap{size: size})
	if old != nil {
		old.size = 0 // want `write to interior of frozen type snap \(published through atomic.Pointer\) outside its constructor closure`
	}
}

// want `\[directive\] //acclaim:frozen must be in a type declaration's doc or line comment`
//acclaim:frozen

var sizes = []int{1, 2, 4}
