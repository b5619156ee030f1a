// Package featspace describes the autotuner feature space.
//
// A feature point is the triple (number of nodes, processes per node,
// message size in bytes) that parameterises one collective benchmark, as
// defined in Section II-C of the ACCLAiM paper. The package provides
// power-of-two grids matching the paper's evaluation bounds, helpers to
// classify and perturb power-of-two ("P2") values, and the non-P2
// neighbourhood sampling rule from Section IV-B.
package featspace

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Point is a single feature-space point: a benchmark scenario.
type Point struct {
	Nodes    int // number of nodes participating in the collective
	PPN      int // processes per node
	MsgBytes int // message size in bytes (OSU convention per collective)
}

// Ranks returns the total number of MPI processes at the point.
func (p Point) Ranks() int { return p.Nodes * p.PPN }

// String renders the point as "nodes=N ppn=P msg=M".
func (p Point) String() string {
	return fmt.Sprintf("nodes=%d ppn=%d msg=%d", p.Nodes, p.PPN, p.MsgBytes)
}

// Valid reports whether all components are positive and there are at
// least two ranks (a collective over a single process is degenerate).
func (p Point) Valid() bool {
	return p.Nodes >= 1 && p.PPN >= 1 && p.MsgBytes >= 1 && p.Ranks() >= 2
}

// Validate is the error-returning form of Valid for boundary layers
// (CLI flags, matrix configs) that must say what is wrong rather than
// silently failing deep inside the simulator.
func (p Point) Validate() error {
	switch {
	case p.Nodes < 1 || p.PPN < 1 || p.MsgBytes < 1:
		return fmt.Errorf("featspace: point %v needs positive nodes, ppn, and message size", p)
	case p.Ranks() < 2:
		return fmt.Errorf("featspace: point %v is a single-rank collective", p)
	default:
		return nil
	}
}

// Space is a finite grid of feature values. The cross product of the
// three axes enumerates all candidate points.
type Space struct {
	Nodes []int // candidate node counts, ascending
	PPNs  []int // candidate processes-per-node values, ascending
	Msgs  []int // candidate message sizes in bytes, ascending
}

// Size returns the number of points in the grid.
func (s Space) Size() int { return len(s.Nodes) * len(s.PPNs) * len(s.Msgs) }

// Points enumerates the full cross product in deterministic order
// (nodes-major, then ppn, then message size).
func (s Space) Points() []Point {
	pts := make([]Point, 0, s.Size())
	for _, n := range s.Nodes {
		for _, p := range s.PPNs {
			for _, m := range s.Msgs {
				pts = append(pts, Point{Nodes: n, PPN: p, MsgBytes: m})
			}
		}
	}
	return pts
}

// Contains reports whether the point lies on the grid.
func (s Space) Contains(pt Point) bool {
	return containsInt(s.Nodes, pt.Nodes) && containsInt(s.PPNs, pt.PPN) && containsInt(s.Msgs, pt.MsgBytes)
}

func containsInt(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

// p2Values returns the powers of two in [lo, hi], inclusive. lo and hi
// need not themselves be powers of two.
func p2Values(lo, hi int) []int {
	var vs []int
	for v := 1; v <= hi; v *= 2 {
		if v >= lo {
			vs = append(vs, v)
		}
		if v > hi/2 { // avoid overflow
			break
		}
	}
	return vs
}

// P2Grid builds the power-of-two grid used throughout the paper's
// simulated experiments: nodes in [2, maxNodes], ppn in [1, maxPPN],
// message sizes in [minMsg, maxMsg], all powers of two.
func P2Grid(maxNodes, maxPPN, minMsg, maxMsg int) Space {
	return Space{
		Nodes: p2Values(2, maxNodes),
		PPNs:  p2Values(1, maxPPN),
		Msgs:  p2Values(minMsg, maxMsg),
	}
}

// ProductionSpace returns a production grid scaled to the given bounds
// (message sizes stay at 8 B–1 MiB).
func ProductionSpace(maxNodes, maxPPN int) Space { return P2Grid(maxNodes, maxPPN, 8, 1<<20) }

// IsP2 reports whether v is a positive power of two.
func IsP2(v int) bool { return v > 0 && v&(v-1) == 0 }

// PrevP2 returns the largest power of two <= v. It panics if v < 1.
func PrevP2(v int) int {
	if v < 1 {
		panic("featspace: PrevP2 of non-positive value")
	}
	return 1 << (bits.Len(uint(v)) - 1)
}

// NextP2 returns the smallest power of two >= v. It panics if v < 1.
func NextP2(v int) int {
	if v < 1 {
		panic("featspace: NextP2 of non-positive value")
	}
	if IsP2(v) {
		return v
	}
	return 1 << bits.Len(uint(v))
}

// p2Frac measures how far v sits above its floor power of two, as a
// fraction in [0, 1): 0 for exact powers of two, approaching 1 just
// below the next power of two. It is used as a derived model feature so
// regressors can distinguish P2 from non-P2 values.
func p2Frac(v int) float64 {
	if v < 1 {
		return 0
	}
	p := PrevP2(v)
	return float64(v-p) / float64(p)
}

// log2 returns log2(v) as a float64 for feature encoding.
func log2(v int) float64 { return math.Log2(float64(v)) }

// NonP2Near returns a random non-power-of-two value "near" the
// power-of-two value v, following the paper's Section IV-B rule: the
// result lies strictly between the midpoint to the previous power of two
// and the midpoint to the next power of two, and is never v itself.
// For v = 8 the result is drawn from [6, 12] \ {8}. For v <= 2 (where no
// non-P2 neighbour exists below 3) it perturbs upward only.
func NonP2Near(rng *rand.Rand, v int) int {
	if !IsP2(v) {
		return v
	}
	lo := v - v/4 // midpoint between v/2 and v
	hi := v + v/2 // midpoint between v and 2v
	if lo < 3 {
		lo = 3
	}
	if hi <= lo {
		hi = lo + 1
	}
	for i := 0; i < 64; i++ {
		c := lo + rng.Intn(hi-lo+1)
		if c != v && !IsP2(c) {
			return c
		}
	}
	// Degenerate interval (tiny v): fall back to v+1 if non-P2, else v+3.
	if !IsP2(v + 1) {
		return v + 1
	}
	return v + 3
}

// Features encodes a point (and optional algorithm index) into the model
// feature vector used by every autotuner in this repository:
//
//	[nodes, ppn, log2(msg), log2(ranks), p2frac(msg), p2frac(nodes), algIdx...]
//
// The derived features carry no extra information but give tree models
// cheaper splits: log2(ranks) captures the joint scale that algorithm
// crossovers track, and the two p2frac features give a handle on the
// P2/non-P2 distinction — a model trained only on P2 points sees them
// as constant zero and cannot exploit them, reproducing the failure
// mode in Figure 5 of the paper.
func Features(pt Point, algIdx ...int) []float64 {
	return appendFeatures(make([]float64, 0, NumFeatures), pt, algIdx...)
}

// appendFeatures appends the Features encoding of pt (and optional
// algorithm indices) to dst and returns the extended slice. It is the
// allocation-free form used on the scoring hot path: candidate pools
// are encoded into one reused flat buffer per round instead of one
// fresh slice per point.
func appendFeatures(dst []float64, pt Point, algIdx ...int) []float64 {
	dst = append(dst,
		float64(pt.Nodes),
		float64(pt.PPN),
		log2(pt.MsgBytes),
		log2(pt.Ranks()),
		p2Frac(pt.MsgBytes),
		p2Frac(pt.Nodes),
	)
	for _, a := range algIdx {
		dst = append(dst, float64(a))
	}
	return dst
}

// NumFeatures is the length of the vector returned by Features with one
// algorithm index appended.
const NumFeatures = 7

// Matrix is a flat, row-major feature buffer — the batch counterpart
// of Features. A scoring round Resets the matrix, AppendPoints the
// candidate pool, and hands Data straight to the compiled forest
// kernel's flat entry points; the backing buffer survives Reset, so a
// steady-state sweep encodes its pool with zero allocations.
type Matrix struct {
	data []float64
	cols int
}

// Reset empties the matrix and fixes the row width, keeping the
// underlying buffer for reuse. It panics for a non-positive width.
func (m *Matrix) Reset(cols int) {
	if cols < 1 {
		panic("featspace: Matrix row width must be positive")
	}
	m.cols = cols
	m.data = m.data[:0]
}

// AppendPoint encodes one point (see Features) as the next row. It
// panics if the encoding width differs from the matrix's row width.
func (m *Matrix) AppendPoint(pt Point, algIdx ...int) {
	start := len(m.data)
	m.data = appendFeatures(m.data, pt, algIdx...)
	if len(m.data)-start != m.cols {
		panic(fmt.Sprintf("featspace: encoded %d features into a %d-column matrix", len(m.data)-start, m.cols))
	}
}

// AppendRow appends one raw feature row. Its first use fixes the row
// width if no Reset has; afterwards it panics on a width mismatch,
// like AppendPoint. Tests use it to build raw training matrices for
// forest.TrainMatrix.
func (m *Matrix) AppendRow(vals ...float64) {
	if m.cols == 0 {
		m.Reset(len(vals))
	}
	if len(vals) != m.cols {
		panic(fmt.Sprintf("featspace: appended a %d-feature row to a %d-column matrix", len(vals), m.cols))
	}
	m.data = append(m.data, vals...)
}

// Col gathers column j into dst (len == Rows) — the column view the
// forest trainer's binning pass reads. It panics if j is out of range
// or dst has the wrong length.
func (m *Matrix) Col(j int, dst []float64) {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("featspace: Col(%d) on a %d-column matrix", j, m.cols))
	}
	if len(dst) != m.Rows() {
		panic(fmt.Sprintf("featspace: Col destination has %d slots for %d rows", len(dst), m.Rows()))
	}
	for i := range dst {
		dst[i] = m.data[i*m.cols+j]
	}
}

// Rows returns the number of encoded rows.
func (m *Matrix) Rows() int {
	if m.cols == 0 {
		return 0
	}
	return len(m.data) / m.cols
}

// Cols returns the row width fixed by the last Reset.
func (m *Matrix) Cols() int { return m.cols }

// Data returns the row-major backing slice, aliased until the next
// Reset or AppendPoint.
func (m *Matrix) Data() []float64 { return m.data }

// SetCol overwrites column j in every row. The unified-model selector
// uses it to re-target the trailing algorithm-index feature without
// re-encoding the pool for each algorithm.
func (m *Matrix) SetCol(j int, v float64) {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("featspace: SetCol(%d) on a %d-column matrix", j, m.cols))
	}
	for i := j; i < len(m.data); i += m.cols {
		m.data[i] = v
	}
}
