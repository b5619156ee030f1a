package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// alltoallBrucks is the Bruck store-and-forward alltoall: a local
// rotation, ceil(log2(n)) packed exchanges in which every block whose
// rotated index has the round's bit set moves dist ranks forward, and a
// final inverse rotation. Only log(n) latency terms, but each block is
// forwarded up to log(n) times and both rotations pay a full local
// copy — MPICH's short-message choice.
func alltoallBrucks(c *simmpi.Comm, send simmpi.Buf, segs segset) simmpi.Buf {
	n := c.Size()
	m := send.N / n
	rank := c.Rank()
	// Rotation 1: tmp[j] = block destined for rank (rank+j)%n, so the
	// self block sits at index 0 and never moves.
	tmp := newBufLike(send, n*m)
	for j := 0; j < n; j++ {
		d := (rank + j) % n
		tmp.CopyInto(j*m, send.Slice(d*m, (d+1)*m))
	}
	c.Compute(c.Model().CopyCost(n * m))
	blocks := make([]int, 0, n)
	for dist := 1; dist < n; dist *= 2 {
		blocks = blocks[:0]
		for j := 1; j < n; j++ {
			if j&dist != 0 {
				blocks = append(blocks, j)
			}
		}
		payload := concatBlocks(tmp, segs, blocks)
		got := c.Sendrecv((rank+dist)%n, payload, (rank-dist+n)%n)
		scatterBlocks(tmp, segs, blocks, got)
	}
	// Rotation 2: after the rounds tmp[j] holds the block sent to this
	// rank by rank (rank-j+n)%n; invert into source order.
	out := newBufLike(send, n*m)
	for j := 0; j < n; j++ {
		s := (rank - j + n) % n
		out.CopyInto(s*m, tmp.Slice(j*m, (j+1)*m))
	}
	c.Compute(c.Model().CopyCost(n * m))
	return out
}

// alltoallPairwise exchanges one block per step in n-1 full-duplex
// steps: XOR partners on power-of-two rank counts, a send/recv ring
// otherwise (the MPICH long-message schedule). Every block moves
// exactly once, so it is bandwidth-optimal, at the cost of n-1 latency
// terms.
func alltoallPairwise(c *simmpi.Comm, send simmpi.Buf) simmpi.Buf {
	n := c.Size()
	m := send.N / n
	rank := c.Rank()
	out := newBufLike(send, n*m)
	out.CopyInto(rank*m, send.Slice(rank*m, (rank+1)*m))
	c.Compute(c.Model().CopyCost(m))
	p2 := n&(n-1) == 0
	for step := 1; step < n; step++ {
		var dst, src int
		if p2 {
			dst = rank ^ step
			src = dst
		} else {
			dst = (rank + step) % n
			src = (rank - step + n) % n
		}
		got := c.Sendrecv(dst, send.Slice(dst*m, (dst+1)*m), src)
		out.CopyInto(src*m, got)
	}
	return out
}

// alltoallScattered posts all n-1 sends eagerly before draining the
// n-1 receives (MPICH's scattered isend/irecv schedule): maximum
// overlap, so the completion time is dominated by the slowest single
// transfer plus the serialized injection overheads.
func alltoallScattered(c *simmpi.Comm, send simmpi.Buf) simmpi.Buf {
	n := c.Size()
	m := send.N / n
	rank := c.Rank()
	out := newBufLike(send, n*m)
	out.CopyInto(rank*m, send.Slice(rank*m, (rank+1)*m))
	c.Compute(c.Model().CopyCost(m))
	for i := 1; i < n; i++ {
		dst := (rank + i) % n
		c.Send(dst, send.Slice(dst*m, (dst+1)*m))
	}
	for i := 1; i < n; i++ {
		src := (rank + i) % n
		out.CopyInto(src*m, c.Recv(src))
	}
	return out
}

// execAlltoall runs one alltoall algorithm (msgBytes is the per-pair
// block size, OSU convention: every rank sends a distinct msgBytes
// block to every rank) and verifies every rank's result.
func execAlltoall(model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	segs := uniformSegments(n, msgBytes)
	res, err := simmpi.Run(model, func(c *simmpi.Comm) {
		send := newBuf(n*msgBytes, opts.WithData)
		fillInput(c.Rank(), send)
		var out simmpi.Buf
		switch alg {
		case "brucks":
			out = alltoallBrucks(c, send, segs)
		case "pairwise":
			out = alltoallPairwise(c, send)
		case "scattered":
			out = alltoallScattered(c, send)
		default:
			panic(fmt.Sprintf("coll: unknown alltoall algorithm %q", alg))
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		return nil, res, err
	}
	if opts.WithData {
		for r := 0; r < n; r++ {
			// Rank r receives block r of every source's pattern.
			want := make([]byte, n*msgBytes)
			for s := 0; s < n; s++ {
				for i := 0; i < msgBytes; i++ {
					want[s*msgBytes+i] = inputByte(s, r*msgBytes+i)
				}
			}
			if err := verifyEqual(outs[r], want, "alltoall", r); err != nil {
				return outs, res, err
			}
		}
	}
	return outs, res, nil
}
