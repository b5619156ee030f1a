package netmodel

import "math"

// This file keeps Transfer as it was written before the node-pair
// path-class table and the precomputed link costs — classify the path
// from the two ranks' physical nodes on every call, then apply the
// environment and the non-P2 penalty to the class's raw parameters — as
// the differential oracle for FuzzTransferDifferential (fuzz_test.go).
// It reads nothing of Model beyond its exported fields and Topology, so
// it shares no table and no precomputed value with the code under test.

// ReferenceTransfer is the reference form of m.Transfer(from, to, bytes).
func ReferenceTransfer(m *Model, from, to, bytes int) float64 {
	na, nb := m.Alloc.Nodes[from/m.PPN], m.Alloc.Nodes[to/m.PPN]
	c := IntraNode
	if na != nb {
		c = m.Topology().ClassBetween(na, nb)
	}
	alpha := m.Params.Latency[c]
	bw := m.Params.Bandwidth[c]
	if c != IntraNode {
		alpha *= m.Env.LatencyFactor
		bw /= m.Env.BandwidthFactor
	}
	if bytes > 0 && !isP2(bytes) {
		bw /= m.Params.NonP2Penalty
		alpha *= m.Params.NonP2Alpha
	}
	t := alpha + float64(bytes)/bw
	if e := m.Env; e.HeteroEvery > 0 {
		slow := func(r int) float64 {
			if (r/m.PPN+1)%e.HeteroEvery == 0 {
				return e.HeteroFactor
			}
			return 1
		}
		t *= math.Max(slow(from), slow(to))
	}
	return t
}
