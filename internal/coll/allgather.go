package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// uniformSegments partitions n*m output bytes into n blocks of m bytes.
func uniformSegments(n, m int) segset {
	s := segset{off: make([]int, n+1)}
	for i := range s.off {
		s.off[i] = i * m
	}
	return s
}

// allgatherRecursiveDoubling gathers every rank's m-byte block to all
// ranks in log2(n) doubling exchanges. The payload doubles every round,
// so it has the fewest latency terms; non-P2 rank counts pay the
// pre/post fold with its extra full-size transfer, making this the
// strongly P2-favoring allgather.
func allgatherRecursiveDoubling(c *simmpi.Comm, block simmpi.Buf, segs segset) simmpi.Buf {
	n := c.Size()
	out := newBufLike(block, n*block.N)
	out.CopyInto(c.Rank()*block.N, block)
	rdAllgather(c, out, segs, c.Rank(), n, func(r int) int { return r })
	return out
}

// allgatherRing gathers blocks with n-1 pipelined neighbour exchanges of
// one block each: bandwidth-optimal and topology-friendly, but its n-1
// serial latency terms dominate for small blocks.
func allgatherRing(c *simmpi.Comm, block simmpi.Buf, segs segset) simmpi.Buf {
	n := c.Size()
	out := newBufLike(block, n*block.N)
	out.CopyInto(c.Rank()*block.N, block)
	ringAllgather(c, out, segs, c.Rank(), n, func(r int) int { return r })
	return out
}

// allgatherBrucks is the Bruck algorithm: ceil(log2(n)) exchanges that
// work for any rank count, at the cost of a final local rotation of the
// whole n*m buffer. The short-message algorithm of choice for non-P2
// rank counts in MPICH.
func allgatherBrucks(c *simmpi.Comm, block simmpi.Buf) simmpi.Buf {
	n := c.Size()
	m := block.N
	rank := c.Rank()
	// tmp holds blocks in rotated order: position j = block of rank+j.
	tmp := newBufLike(block, n*m)
	tmp.CopyInto(0, block)
	cur := 1
	for dist := 1; dist < n; dist *= 2 {
		sendCnt := dist
		if n-cur < sendCnt {
			sendCnt = n - cur
		}
		to := (rank - dist + n) % n
		from := (rank + dist) % n
		got := c.Sendrecv(to, tmp.Slice(0, sendCnt*m), from)
		tmp.CopyInto(cur*m, got)
		cur += got.N / m
	}
	// Rotate into rank order; real implementations pay a full local copy.
	c.Compute(c.Model().CopyCost(n * m))
	out := newBufLike(block, n*m)
	for j, r := 0, rank; j < n; j, r = j+1, ringNext(r, n) {
		out.CopyInto(r*m, tmp.Slice(j*m, (j+1)*m))
	}
	return out
}

// newBufLike allocates an n-byte buffer in the same data-mode as ref.
func newBufLike(ref simmpi.Buf, n int) simmpi.Buf {
	return newBuf(n, ref.HasData())
}

// execAllgather runs one allgather algorithm (msgBytes is the per-rank
// block size, OSU convention) and verifies every rank's result.
func execAllgather(e *simmpi.Engine, model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	segs := uniformSegments(n, msgBytes)
	res, err := e.Run(model, func(c *simmpi.Comm) {
		block := newBuf(msgBytes, opts.WithData)
		fillInput(c.Rank(), block)
		var out simmpi.Buf
		switch alg {
		case "recursive_doubling":
			out = allgatherRecursiveDoubling(c, block, segs)
		case "ring":
			out = allgatherRing(c, block, segs)
		case "brucks":
			out = allgatherBrucks(c, block)
		default:
			panic(fmt.Sprintf("coll: unknown allgather algorithm %q", alg))
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		return nil, res, err
	}
	if opts.WithData {
		want := make([]byte, n*msgBytes)
		for r := 0; r < n; r++ {
			for i := 0; i < msgBytes; i++ {
				want[r*msgBytes+i] = inputByte(r, i)
			}
		}
		for r := 0; r < n; r++ {
			if err := verifyEqual(outs[r], want, "allgather", r); err != nil {
				return outs, res, err
			}
		}
	}
	return outs, res, nil
}
