package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// rsBounds returns the byte boundaries of the ranges the pof2 active
// ranks own during recursive halving: active newRank k owns
// [bound[k], bound[k+1]), which covers its own ceilSegments segment plus
// (for k < rem) the adjacent segment of the even rank folded into it.
func rsBounds(st foldState, segs segset, total int) []int {
	bound := make([]int, st.pof2+1)
	for k := 0; k < st.pof2; k++ {
		if k < st.rem {
			bound[k] = segs.off[2*k]
		} else {
			bound[k] = segs.off[k+st.rem]
		}
	}
	bound[st.pof2] = total
	return bound
}

// reduceScatterRecursiveHalving is MPICH's recursive-halving
// reduce_scatter: non-P2 rank counts pre-fold as in the Rabenseifner
// reductions, then the pof2 active ranks repeatedly exchange and
// combine the half of their current range they do not own, splitting at
// segment boundaries, until each owns exactly its reduced range. Folded
// ranks receive their segment back from their odd partner at the end.
// log(n) latency terms and bandwidth-optimal data volume, but the fold
// costs an extra full-vector transfer on non-P2 rank counts.
func reduceScatterRecursiveHalving(c *simmpi.Comm, vec simmpi.Buf, op simmpi.Op, segs segset) simmpi.Buf {
	n := c.Size()
	r := c.Rank()
	st := foldFor(r, n)
	acc := vec.Clone()
	if !preFold(c, st, acc, op) {
		// Folded-away even rank: the odd partner computes our segment.
		return c.Recv(r + 1)
	}
	newRank := st.newRank
	bound := rsBounds(st, segs, vec.N)
	glo, ghi := 0, st.pof2
	lo, hi := bound[glo], bound[ghi]
	for ghi-glo > 1 {
		gmid := (glo + ghi) / 2
		bmid := bound[gmid]
		half := (ghi - glo) / 2
		if newRank < gmid {
			partner := st.oldRank(newRank + half)
			got := c.Sendrecv(partner, acc.Slice(bmid, hi), partner)
			keep := acc.Slice(lo, bmid)
			op.Combine(keep, got)
			c.Compute(c.Model().ReduceCost(keep.N))
			ghi, hi = gmid, bmid
		} else {
			partner := st.oldRank(newRank - half)
			got := c.Sendrecv(partner, acc.Slice(lo, bmid), partner)
			keep := acc.Slice(bmid, hi)
			op.Combine(keep, got)
			c.Compute(c.Model().ReduceCost(keep.N))
			glo, lo = gmid, bmid
		}
	}
	if newRank < st.rem {
		// Return the folded even partner's segment, keep our own.
		even := 2 * newRank
		c.Send(even, acc.Slice(segs.off[even], segs.off[even+1]))
	}
	return acc.Slice(segs.off[r], segs.off[r+1])
}

// reduceScatterPairwise is MPICH's pairwise-exchange reduce_scatter:
// n-1 full-duplex steps in which each rank sends the still-unreduced
// input segment its step partner owns and folds the segment it receives
// into its own accumulator. Works for any rank count with uniformly
// small messages; the n-1 latency terms make it the long-vector choice.
func reduceScatterPairwise(c *simmpi.Comm, vec simmpi.Buf, op simmpi.Op, segs segset) simmpi.Buf {
	n := c.Size()
	r := c.Rank()
	acc := vec.Slice(segs.off[r], segs.off[r+1]).Clone()
	for i := 1; i < n; i++ {
		dst := (r + i) % n
		src := (r - i + n) % n
		payload := vec.Slice(segs.off[dst], segs.off[dst+1])
		got := c.Sendrecv(dst, payload, src)
		op.Combine(acc, got)
		c.Compute(c.Model().ReduceCost(acc.N))
	}
	return acc
}

// execReduceScatter runs one reduce_scatter algorithm (msgBytes is the
// full vector, split into ceilSegments across ranks — the same layout
// the scatter-based bcast/reduce schedules use, so
// reduce_scatter ≡ reduce + scatterv) and verifies every rank's
// segment.
func execReduceScatter(model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	segs := ceilSegments(msgBytes, n)
	res, err := simmpi.Run(model, func(c *simmpi.Comm) {
		vec := newBuf(msgBytes, opts.WithData)
		fillInput(c.Rank(), vec)
		var out simmpi.Buf
		switch alg {
		case "recursive_halving":
			out = reduceScatterRecursiveHalving(c, vec, opts.Op, segs)
		case "pairwise_exchange":
			out = reduceScatterPairwise(c, vec, opts.Op, segs)
		default:
			panic(fmt.Sprintf("coll: unknown reduce_scatter algorithm %q", alg))
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		return nil, res, err
	}
	if opts.WithData {
		full := expectedReduction(n, msgBytes, opts.Op)
		for r := 0; r < n; r++ {
			want := full[segs.off[r]:segs.off[r+1]]
			if err := verifyEqual(outs[r], want, "reduce_scatter", r); err != nil {
				return outs, res, err
			}
		}
	}
	return outs, res, nil
}
