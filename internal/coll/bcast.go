package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// bcastBinomial broadcasts out (valid at the root) down a binomial tree.
// log2(n) rounds, each carrying the full message: few, large transfers,
// which makes it the latency-robust choice the paper's Section II-B
// example describes.
func bcastBinomial(c *simmpi.Comm, root int, out simmpi.Buf) {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root + n) % n
			b := c.Recv(src)
			out.CopyInto(0, b)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + root) % n
			c.Send(dst, out)
		}
		mask >>= 1
	}
}

// bcastScatterRDAllgather is MPICH's scatter_recursive_doubling_allgather:
// a binomial scatter of message chunks followed by a recursive-doubling
// allgather. Bandwidth-optimal for large messages, but it strongly
// favors power-of-two rank counts (the allgather fixup for the leftover
// ranks costs an extra full-message transfer).
func bcastScatterRDAllgather(c *simmpi.Comm, root int, out simmpi.Buf, segs segset) {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	toAbs := func(r int) int { return (r + root) % n }
	binomialScatter(c, out, rel, n, toAbs)
	rdAllgather(c, out, segs, rel, n, toAbs)
}

// bcastScatterRingAllgather is MPICH's scatter_ring_allgather: binomial
// scatter followed by a ring allgather. Bandwidth-optimal and indifferent
// to power-of-two rank counts, but its n-1 serial ring steps make it
// latency-sensitive.
func bcastScatterRingAllgather(c *simmpi.Comm, root int, out simmpi.Buf, segs segset) {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	toAbs := func(r int) int { return (r + root) % n }
	binomialScatter(c, out, rel, n, toAbs)
	ringAllgather(c, out, segs, rel, n, toAbs)
}

// execBcast runs one bcast algorithm over all ranks and verifies that
// every rank ends with the root's buffer.
func execBcast(e *simmpi.Engine, model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	segs := ceilSegments(msgBytes, n)
	res, err := e.Run(model, func(c *simmpi.Comm) {
		out := newBuf(msgBytes, opts.WithData)
		if c.Rank() == opts.Root {
			fillInput(opts.Root, out)
		}
		switch alg {
		case "binomial":
			bcastBinomial(c, opts.Root, out)
		case "scatter_recursive_doubling_allgather":
			bcastScatterRDAllgather(c, opts.Root, out, segs)
		case "scatter_ring_allgather":
			bcastScatterRingAllgather(c, opts.Root, out, segs)
		default:
			panic(fmt.Sprintf("coll: unknown bcast algorithm %q", alg))
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		return nil, res, err
	}
	if opts.WithData {
		want := make([]byte, msgBytes)
		for i := range want {
			want[i] = inputByte(opts.Root, i)
		}
		for r := 0; r < n; r++ {
			if err := verifyEqual(outs[r], want, "bcast", r); err != nil {
				return outs, res, err
			}
		}
	}
	return outs, res, nil
}
