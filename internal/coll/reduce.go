package coll

import (
	"fmt"

	"acclaim/internal/netmodel"
	"acclaim/internal/simmpi"
)

// reduceBinomial reduces every rank's vec to the root along a binomial
// tree: each internal node combines its children's vectors and forwards
// one full-size message to its parent. Few, large messages — the
// latency-robust choice from the paper's MPI_Reduce example.
// It returns the reduced vector (meaningful only at the root).
func reduceBinomial(c *simmpi.Comm, root int, vec simmpi.Buf, op simmpi.Op) simmpi.Buf {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	acc := vec.Clone()
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < n {
				src := (srcRel + root) % n
				b := c.Recv(src)
				op.Combine(acc, b)
				c.Compute(c.Model().ReduceCost(acc.N))
			}
		} else {
			dst := ((rel &^ mask) + root) % n
			c.Send(dst, acc)
			break
		}
		mask <<= 1
	}
	return acc
}

// recursiveHalvingReduceScatter is the shared core of the Rabenseifner
// reduce and allreduce algorithms: the pof2 active ranks repeatedly
// exchange buffer halves with a partner and combine, so that active
// newRank k ends up owning the fully reduced byte range it returns.
// acc must already contain the rank's (possibly pre-folded) vector.
func recursiveHalvingReduceScatter(c *simmpi.Comm, st foldState, newRank int, acc simmpi.Buf, op simmpi.Op) (lo, hi int) {
	lo, hi = 0, acc.N
	for dist := st.pof2 / 2; dist >= 1; dist /= 2 {
		partner := st.oldRank(newRank ^ dist)
		mid := lo + (hi-lo)/2
		var keepLo, keepHi, sendLo, sendHi int
		if newRank&dist == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		got := c.Sendrecv(partner, acc.Slice(sendLo, sendHi), partner)
		keep := acc.Slice(keepLo, keepHi)
		op.Combine(keep, got)
		c.Compute(c.Model().ReduceCost(keep.N))
		lo, hi = keepLo, keepHi
	}
	return lo, hi
}

// preFold performs the non-P2 preparation step: even ranks below 2*rem
// send their whole vector to the odd neighbour and drop out; the odd
// neighbour combines. Returns true if this rank stays active.
func preFold(c *simmpi.Comm, st foldState, acc simmpi.Buf, op simmpi.Op) bool {
	r := c.Rank()
	if st.newRank == -1 {
		c.Send(r+1, acc)
		return false
	}
	if r < 2*st.rem { // odd partner of a folded rank
		b := c.Recv(r - 1)
		op.Combine(acc, b)
		c.Compute(c.Model().ReduceCost(acc.N))
	}
	return true
}

// reduceScatterGather is MPICH's scatter_gather (Rabenseifner) reduce:
// recursive-halving reduce-scatter followed by a binomial gather of the
// scattered segments to the root. Bandwidth-optimal for large vectors;
// many small messages make it latency-sensitive, and non-P2 rank counts
// pay the fold-in/fold-out penalty. Returns the full result at the root.
func reduceScatterGather(c *simmpi.Comm, root int, vec simmpi.Buf, op simmpi.Op) simmpi.Buf {
	n := c.Size()
	acc := vec.Clone()
	st := foldFor(c.Rank(), n)
	holder := st.oldRank(0) // the active rank that ends with the full result
	if active := preFold(c, st, acc, op); active {
		newRank := st.newRank
		lo, hi := recursiveHalvingReduceScatter(c, st, newRank, acc, op)
		// Binomial gather of segments to newRank 0: at each mask level
		// the rank whose bit is set sends its consolidated range up; the
		// receiver's range is extended, since the source's range starts
		// exactly at the receiver's hi.
		mask := 1
		for mask < st.pof2 {
			if newRank&mask != 0 {
				c.Send(st.oldRank(newRank-mask), acc.Slice(lo, hi))
				break
			}
			if src := newRank + mask; src < st.pof2 {
				b := c.Recv(st.oldRank(src))
				acc.CopyInto(hi, b)
				hi += b.N
			}
			mask <<= 1
		}
		if newRank == 0 && c.Rank() != root {
			c.Send(root, acc)
		}
	}
	if c.Rank() == root && root != holder {
		full := c.Recv(holder)
		acc.CopyInto(0, full)
	}
	return acc
}

// execReduce runs one reduce algorithm and verifies the root's result.
func execReduce(e *simmpi.Engine, model *netmodel.Model, alg string, msgBytes int, opts Options) ([]simmpi.Buf, simmpi.Result, error) {
	n := model.Ranks()
	outs := make([]simmpi.Buf, n)
	res, err := e.Run(model, func(c *simmpi.Comm) {
		vec := newBuf(msgBytes, opts.WithData)
		fillInput(c.Rank(), vec)
		var out simmpi.Buf
		switch alg {
		case "binomial":
			out = reduceBinomial(c, opts.Root, vec, opts.Op)
		case "scatter_gather":
			out = reduceScatterGather(c, opts.Root, vec, opts.Op)
		default:
			panic(fmt.Sprintf("coll: unknown reduce algorithm %q", alg))
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		return nil, res, err
	}
	if opts.WithData {
		want := expectedReduction(n, msgBytes, opts.Op)
		if err := verifyEqual(outs[opts.Root], want, "reduce", opts.Root); err != nil {
			return outs, res, err
		}
	}
	return outs, res, nil
}
