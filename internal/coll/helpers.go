package coll

import (
	"fmt"

	"acclaim/internal/featspace"
	"acclaim/internal/simmpi"
)

// segset describes how an output buffer is partitioned into contiguous
// per-rank segments: segment i covers bytes [off[i], off[i+1]), so off
// has one entry more than there are segments, the last being the total.
// A segset depends only on the call's shape, so each exec* harness
// builds one and every rank reads it.
type segset struct {
	off []int
}

// len returns the length of segment i.
func (s segset) len(i int) int { return s.off[i+1] - s.off[i] }

// ceilSegments splits total bytes into n segments of ceil(total/n) bytes
// each (the MPICH scatter_size), with the tail truncated and possibly
// empty — exactly the layout MPIR_Scatter_for_bcast produces. Non-P2
// totals or rank counts yield uneven, unaligned segments, which is where
// the non-P2 performance effects originate.
func ceilSegments(total, n int) segset {
	ss := (total + n - 1) / n
	s := segset{off: make([]int, n+1)}
	for i := range s.off {
		s.off[i] = min(i*ss, total)
	}
	return s
}

// binomialScatter distributes the segments of out from relative rank 0
// down a binomial tree, as in MPICH's MPIR_Scatter_for_bcast. On entry,
// relative rank 0 holds the full buffer; on return, relative rank rel
// holds its own segment (and has forwarded its subtree's segments).
// toAbs maps relative ranks to absolute ranks.
func binomialScatter(c *simmpi.Comm, out simmpi.Buf, rel, n int, toAbs func(int) int) {
	total := out.N
	ss := (total + n - 1) / n
	currHi := 0
	if rel == 0 {
		currHi = total
	}
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			if rel*ss < total { // otherwise there is nothing for this subtree
				b := c.Recv(toAbs(rel - mask))
				out.CopyInto(rel*ss, b)
				currHi = rel*ss + b.N
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			sendLo := (rel + mask) * ss
			if sendLo < currHi {
				c.Send(toAbs(rel+mask), out.Slice(sendLo, currHi))
				currHi = sendLo
			}
		}
		mask >>= 1
	}
}

// heldRanges returns the byte ranges of out held by active rank a once
// recursive doubling has reached the given distance (dist = 1 before the
// first exchange). Actives are 0..pof2-1 and active b additionally
// carries the folded-in segment of extra rank pof2+b when b < rem, so a
// holds its aligned group of dist own segments [lo, hi) plus the group's
// extras [xlo, xhi) — two contiguous runs, the second possibly empty.
func heldRanges(segs segset, a, dist, pof2, rem int) (lo, hi, xlo, xhi int) {
	base := a &^ (dist - 1)
	lo, hi = segs.off[base], segs.off[base+dist]
	if base < rem {
		xlo, xhi = segs.off[pof2+base], segs.off[pof2+min(base+dist, rem)]
	}
	return lo, hi, xlo, xhi
}

// rdAllgather gathers all segments of out to all ranks using recursive
// doubling. Rank rel initially holds segment rel. For non-power-of-two
// rank counts the top rem = n - pof2 ranks fold their segment into a
// partner before the exchange rounds and receive the full buffer
// afterwards — the extra full-size transfer is the classic reason
// recursive doubling favors power-of-two rank counts.
func rdAllgather(c *simmpi.Comm, out simmpi.Buf, segs segset, rel, n int, toAbs func(int) int) {
	if n == 1 {
		return
	}
	pof2 := featspace.PrevP2(n)
	rem := n - pof2
	if rel >= pof2 {
		partner := rel - pof2
		c.Send(toAbs(partner), out.Slice(segs.off[rel], segs.off[rel+1]))
		full := c.Recv(toAbs(partner))
		out.CopyInto(0, full)
		return
	}
	if rel < rem {
		b := c.Recv(toAbs(rel + pof2))
		out.CopyInto(segs.off[rel+pof2], b)
	}
	for dist := 1; dist < pof2; dist *= 2 {
		partner := rel ^ dist
		lo, hi, xlo, xhi := heldRanges(segs, rel, dist, pof2, rem)
		payload := out.Slice(lo, hi).Concat(out.Slice(xlo, xhi))
		got := c.Sendrecv(toAbs(partner), payload, toAbs(partner))
		lo, hi, xlo, xhi = heldRanges(segs, partner, dist, pof2, rem)
		if want := hi - lo + xhi - xlo; got.N != want {
			panic(fmt.Sprintf("coll: payload of %d bytes for blocks totalling %d", got.N, want))
		}
		out.CopyInto(lo, got.Slice(0, hi-lo))
		out.CopyInto(xlo, got.Slice(hi-lo, got.N))
	}
	if rel < rem {
		c.Send(toAbs(rel+pof2), out)
	}
}

// concatBlocks builds the payload holding the listed segments of out,
// concatenated in list order.
func concatBlocks(out simmpi.Buf, segs segset, blocks []int) simmpi.Buf {
	total := 0
	for _, b := range blocks {
		total += segs.len(b)
	}
	if !out.HasData() {
		return simmpi.MakeBuf(total)
	}
	data := make([]byte, 0, total)
	for _, b := range blocks {
		data = append(data, out.Data[segs.off[b]:segs.off[b+1]]...)
	}
	return simmpi.BytesBuf(data)
}

// scatterBlocks splits a payload built by concatBlocks back into the
// listed segments of out. It panics if the payload length disagrees with
// the block list — that always indicates an algorithm bug.
func scatterBlocks(out simmpi.Buf, segs segset, blocks []int, payload simmpi.Buf) {
	pos := 0
	for _, b := range blocks {
		out.CopyInto(segs.off[b], payload.Slice(pos, pos+segs.len(b)))
		pos += segs.len(b)
	}
	if pos != payload.N {
		panic(fmt.Sprintf("coll: payload of %d bytes for blocks totalling %d", payload.N, pos))
	}
}

// ringAllgather gathers all segments of out to all ranks with the ring
// algorithm: n-1 fully pipelined neighbour exchanges. Rank rel initially
// holds segment rel. At step s it forwards segment rel-s and receives
// segment rel-s-1 (mod n), the one it forwards next; the indices step
// down rather than being recomputed by division, since the loop runs
// once per message.
func ringAllgather(c *simmpi.Comm, out simmpi.Buf, segs segset, rel, n int, toAbs func(int) int) {
	right := toAbs(ringNext(rel, n))
	left := toAbs(ringPrev(rel, n))
	sendIdx := rel
	for s := 0; s < n-1; s++ {
		recvIdx := ringPrev(sendIdx, n)
		payload := out.Slice(segs.off[sendIdx], segs.off[sendIdx+1])
		got := c.Sendrecv(right, payload, left)
		out.CopyInto(segs.off[recvIdx], got)
		sendIdx = recvIdx
	}
}

// ringNext returns (i+1) mod n for i in [0, n) without dividing.
func ringNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// ringPrev returns (i-1) mod n for i in [0, n) without dividing.
func ringPrev(i, n int) int {
	if i == 0 {
		return n - 1
	}
	return i - 1
}

// foldState describes a rank's role in the non-P2 pre/post folding used
// by the reduction algorithms (MPICH's rem = n - pof2 scheme: the first
// 2*rem ranks pair up, even ranks go inactive).
type foldState struct {
	pof2    int
	rem     int
	newRank int // dense rank among actives, or -1 if folded away
}

// foldFor computes the fold role of absolute rank r in a world of n.
func foldFor(r, n int) foldState {
	pof2 := featspace.PrevP2(n)
	rem := n - pof2
	st := foldState{pof2: pof2, rem: rem}
	switch {
	case r < 2*rem && r%2 == 0:
		st.newRank = -1
	case r < 2*rem:
		st.newRank = r / 2
	default:
		st.newRank = r - rem
	}
	return st
}

// oldRank maps a dense active rank back to its absolute rank.
func (st foldState) oldRank(newRank int) int {
	if newRank < st.rem {
		return newRank*2 + 1
	}
	return newRank + st.rem
}
