package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// gatherBinomial collects every rank's block to the root up a binomial
// tree: each internal node accumulates its subtree's blocks (contiguous
// in root-relative order) and forwards them in one message, so the root
// sees only log(n) arrivals. Blocks travel up to log(n) hops, making
// the schedule latency-robust but not bandwidth-optimal. Returns the
// gathered buffer in absolute rank order (meaningful only at the root).
func gatherBinomial(c *simmpi.Comm, root int, block simmpi.Buf) simmpi.Buf {
	n := c.Size()
	m := block.N
	rel := (c.Rank() - root + n) % n
	// buf accumulates this rank's subtree in relative order: offset j*m
	// holds the block of relative rank rel+j.
	buf := newBufLike(block, n*m)
	buf.CopyInto(0, block)
	cur := m
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (rel&^mask + root) % n
			c.Send(parent, buf.Slice(0, cur))
			break
		}
		if srcRel := rel + mask; srcRel < n {
			b := c.Recv((srcRel + root) % n)
			buf.CopyInto(mask*m, b)
			cur = mask*m + b.N
		}
		mask <<= 1
	}
	if rel != 0 {
		return buf
	}
	if root == 0 {
		return buf // relative order is absolute order
	}
	// Rotate the relative-order buffer into absolute rank order.
	out := newBufLike(block, n*m)
	for j := 0; j < n; j++ {
		out.CopyInto(((root+j)%n)*m, buf.Slice(j*m, (j+1)*m))
	}
	c.Compute(c.Model().CopyCost(n * m))
	return out
}

// gatherLinear has every non-root rank send its block straight to the
// root: each block moves exactly once over the cheapest available path,
// but the root pays n-1 arrivals — the flat schedule production MPIs
// use for small communicators and large blocks.
func gatherLinear(c *simmpi.Comm, root int, block simmpi.Buf) simmpi.Buf {
	n := c.Size()
	m := block.N
	if c.Rank() != root {
		c.Send(root, block)
		return block
	}
	out := newBufLike(block, n*m)
	out.CopyInto(root*m, block)
	for i := 1; i < n; i++ {
		src := (root + i) % n
		out.CopyInto(src*m, c.Recv(src))
	}
	return out
}

// execGather runs one gather algorithm (msgBytes is the per-rank block
// size, OSU convention) and verifies the root's assembled buffer.
func execGather(e *simmpi.Engine, model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	res, err := e.Run(model, func(c *simmpi.Comm) {
		block := newBuf(msgBytes, opts.WithData)
		fillInput(c.Rank(), block)
		var out simmpi.Buf
		switch alg {
		case "binomial":
			out = gatherBinomial(c, opts.Root, block)
		case "linear":
			out = gatherLinear(c, opts.Root, block)
		default:
			panic(fmt.Sprintf("coll: unknown gather algorithm %q", alg))
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
		if err := verifyEqual(outs[opts.Root], want, "gather", opts.Root); err != nil {
			return outs, res, err
		}
	}
	return outs, res, nil
}
