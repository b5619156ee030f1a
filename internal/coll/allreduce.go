package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// allreduceRecursiveDoubling is the classic log-step allreduce: active
// ranks exchange their full vectors with partners at doubling distances
// and combine. log2(n) rounds of full-size messages — latency-friendly
// for small vectors, bandwidth-hungry for large ones. Non-P2 rank counts
// pay the pre/post fold.
func allreduceRecursiveDoubling(c *simmpi.Comm, vec simmpi.Buf, op simmpi.Op) simmpi.Buf {
	n := c.Size()
	acc := vec.Clone()
	st := foldFor(c.Rank(), n)
	if active := preFold(c, st, acc, op); active {
		for dist := 1; dist < st.pof2; dist *= 2 {
			partner := st.oldRank(st.newRank ^ dist)
			got := c.Sendrecv(partner, acc, partner)
			op.Combine(acc, got)
			c.Compute(c.Model().ReduceCost(acc.N))
		}
		if c.Rank() < 2*st.rem { // send the result back to the folded partner
			c.Send(c.Rank()-1, acc)
		}
	} else {
		full := c.Recv(c.Rank() + 1)
		acc.CopyInto(0, full)
	}
	return acc
}

// allreduceReduceScatterAllgather is Rabenseifner's allreduce:
// recursive-halving reduce-scatter followed by a recursive-doubling
// allgather of the reduced segments. Bandwidth-optimal (each rank moves
// ~2x the vector rather than log(n)x) at the price of 2 log2(n) latency
// terms and the non-P2 fold penalty.
func allreduceReduceScatterAllgather(c *simmpi.Comm, vec simmpi.Buf, op simmpi.Op) simmpi.Buf {
	n := c.Size()
	acc := vec.Clone()
	st := foldFor(c.Rank(), n)
	if active := preFold(c, st, acc, op); active {
		newRank := st.newRank
		lo, hi := recursiveHalvingReduceScatter(c, st, newRank, acc, op)
		// Recursive-doubling allgather: walk the halving back up. At
		// each distance the partner owns the adjacent range, so the
		// union is contiguous.
		for dist := 1; dist < st.pof2; dist *= 2 {
			partner := st.oldRank(newRank ^ dist)
			got := c.Sendrecv(partner, acc.Slice(lo, hi), partner)
			if newRank&dist == 0 {
				acc.CopyInto(hi, got) // partner's range sits just above
				hi += got.N
			} else {
				acc.CopyInto(lo-got.N, got) // partner's range sits just below
				lo -= got.N
			}
		}
		if lo != 0 || hi != acc.N {
			panic(fmt.Sprintf("coll: allgather ranges did not close: [%d,%d) of %d", lo, hi, acc.N))
		}
		if c.Rank() < 2*st.rem {
			c.Send(c.Rank()-1, acc)
		}
	} else {
		full := c.Recv(c.Rank() + 1)
		acc.CopyInto(0, full)
	}
	return acc
}

// execAllreduce runs one allreduce algorithm and verifies every rank's
// result.
func execAllreduce(e *simmpi.Engine, model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	res, err := e.Run(model, func(c *simmpi.Comm) {
		vec := newBuf(msgBytes, opts.WithData)
		fillInput(c.Rank(), vec)
		var out simmpi.Buf
		switch alg {
		case "recursive_doubling":
			out = allreduceRecursiveDoubling(c, vec, opts.Op)
		case "reduce_scatter_allgather":
			out = allreduceReduceScatterAllgather(c, vec, opts.Op)
		default:
			panic(fmt.Sprintf("coll: unknown allreduce algorithm %q", alg))
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		return nil, res, err
	}
	if opts.WithData {
		want := expectedReduction(n, msgBytes, opts.Op)
		for r := 0; r < n; r++ {
			if err := verifyEqual(outs[r], want, "allreduce", r); err != nil {
				return outs, res, err
			}
		}
	}
	return outs, res, nil
}
