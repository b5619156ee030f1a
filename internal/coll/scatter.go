package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// scatterBinomial distributes the root's per-rank blocks down a
// binomial tree (the reverse of gatherBinomial): the root packs the
// blocks in root-relative order and each subtree root forwards its
// subtree's share in one message, halving the payload per level. The
// root injects only log(n) messages, at the cost of blocks travelling
// multiple hops. Returns this rank's block.
func scatterBinomial(c *simmpi.Comm, root int, send simmpi.Buf, m int) simmpi.Buf {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	// buf holds blocks in relative order; only the root fills it, every
	// other rank receives its subtree's share into it.
	buf := newBufLike(send, n*m)
	if rel == 0 {
		for j := 0; j < n; j++ {
			d := (root + j) % n
			buf.CopyInto(j*m, send.Slice(d*m, (d+1)*m))
		}
		if root != 0 {
			c.Compute(c.Model().CopyCost(n * m)) // pack into relative order
		}
	}
	binomialScatter(c, buf, rel, n, func(r int) int { return (r + root) % n })
	return buf.Slice(rel*m, (rel+1)*m)
}

// scatterLinear has the root send every rank its block directly: each
// block moves exactly once, but the root serializes n-1 injections —
// the flat schedule for small communicators and large blocks.
func scatterLinear(c *simmpi.Comm, root int, send simmpi.Buf, m int) simmpi.Buf {
	n := c.Size()
	if c.Rank() != root {
		return c.Recv(root)
	}
	for i := 1; i < n; i++ {
		d := (root + i) % n
		c.Send(d, send.Slice(d*m, (d+1)*m))
	}
	return send.Slice(root*m, (root+1)*m)
}

// execScatter runs one scatter algorithm (msgBytes is the per-rank
// block size, OSU convention: the root distributes n distinct blocks)
// and verifies every rank's received block.
func execScatter(model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	res, err := simmpi.Run(model, func(c *simmpi.Comm) {
		// Only the root has meaningful send data; other ranks still size
		// their buffers from it.
		send := newBuf(n*msgBytes, opts.WithData)
		if c.Rank() == opts.Root {
			fillInput(c.Rank(), send)
		}
		var out simmpi.Buf
		switch alg {
		case "binomial":
			out = scatterBinomial(c, opts.Root, send, msgBytes)
		case "linear":
			out = scatterLinear(c, opts.Root, send, msgBytes)
		default:
			panic(fmt.Sprintf("coll: unknown scatter algorithm %q", alg))
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		return nil, res, err
	}
	if opts.WithData {
		for r := 0; r < n; r++ {
			want := make([]byte, msgBytes)
			for i := range want {
				want[i] = inputByte(opts.Root, r*msgBytes+i)
			}
			if err := verifyEqual(outs[r], want, "scatter", r); err != nil {
				return outs, res, err
			}
		}
	}
	return outs, res, nil
}
