// Package netmodel is the network performance model underneath the
// simulated MPI runtime. It classifies point-to-point paths into four
// classes (intra-node shared memory, then three network layers: the
// Dragonfly layers of Figure 8 — intra-rack, rack pair, global — or
// their analogues on a fat-tree or 3D torus, see topology.go), assigns
// each class Hockney-style latency/bandwidth parameters, and layers
// per-job dynamic factors on top: the allocation-spread latency penalty
// and background congestion that the paper identifies as the reason
// autotuners must retrain every job (Section II-B3, ">2x difference in
// latency for the same collective algorithm on different jobs and
// allocations").
//
// Model.Transfer prices every simulated message, so at construction a
// Model classifies each pair of allocated nodes into a table shared by
// all topologies, and applies the environment and the non-P2 penalty to
// each class's parameters. The result is bit for bit what the per-call
// formula gives (reference_test.go and FuzzTransferDifferential hold it
// to that).
package netmodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"acclaim/internal/cluster"
)

// PathClass categorises the route between two ranks by the highest
// network layer it must traverse.
type PathClass int

// Path classes, cheapest first.
const (
	IntraNode PathClass = iota // same node: shared memory
	IntraRack                  // layer 1: within a rack
	RackPair                   // layer 2: between paired racks
	Global                     // layer 3: between rack pairs
	numPathClasses
)

// String implements fmt.Stringer.
func (c PathClass) String() string {
	switch c {
	case IntraNode:
		return "intra-node"
	case IntraRack:
		return "intra-rack"
	case RackPair:
		return "rack-pair"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("PathClass(%d)", int(c))
	}
}

// Params holds the static cost parameters of the machine. Times are in
// microseconds, sizes in bytes, bandwidths in bytes per microsecond
// (1 B/us = 1 MB/s).
type Params struct {
	Latency      [numPathClasses]float64 // alpha: per-message startup cost
	Bandwidth    [numPathClasses]float64 // beta denominator: bytes per microsecond
	SendOverhead float64                 // CPU time charged to the sender per message
	ReduceRate   float64                 // bytes/us a rank can combine in a reduction op
	CopyRate     float64                 // bytes/us for local memory copies (pack/unpack)

	// NonP2Penalty (>= 1) divides the effective bandwidth of transfers,
	// reductions, and copies whose byte count is not a power of two.
	// It models the pipelining/double-buffering and alignment penalties
	// real MPI transports exhibit for segment sizes that do not tile
	// their internal power-of-two buffers. This is the mechanism that
	// gives non-P2 message sizes genuinely different performance trends
	// (Section III-B of the paper): a model trained only on P2 points
	// cannot interpolate it.
	NonP2Penalty float64

	// NonP2Alpha (>= 1) multiplies the per-message startup latency of
	// non-P2 network transfers: the remainder segment breaks the
	// transport's double-buffered pipeline and costs an extra
	// rendezvous. Because the hit is per message, algorithms built from
	// many small transfers (ring, scatter-based) suffer more than
	// few-large-message algorithms (binomial) — which is what shifts
	// the algorithm *ranking* at non-P2 sizes and makes them genuinely
	// unlearnable from P2-only training data.
	NonP2Alpha float64
}

// isP2 reports whether v is a positive power of two (local copy to keep
// the package dependency-free).
func isP2(v int) bool { return v > 0 && v&(v-1) == 0 }

// DefaultParams returns parameters loosely calibrated to a Xeon-class
// cluster with an Aries-like interconnect. Absolute values are not meant
// to match Theta; the structure (ordering and ratios across layers) is
// what the experiments depend on.
func DefaultParams() Params {
	var p Params
	p.Latency[IntraNode] = 0.3
	p.Latency[IntraRack] = 1.3
	p.Latency[RackPair] = 2.1
	p.Latency[Global] = 3.6
	p.Bandwidth[IntraNode] = 8000 // 8 GB/s
	p.Bandwidth[IntraRack] = 4800
	p.Bandwidth[RackPair] = 4000
	p.Bandwidth[Global] = 3200
	p.SendOverhead = 0.15
	p.ReduceRate = 4000
	p.CopyRate = 12000
	p.NonP2Penalty = 1.5
	p.NonP2Alpha = 5
	return p
}

// Validate checks the parameters for positivity.
func (p Params) Validate() error {
	for c := PathClass(0); c < numPathClasses; c++ {
		if p.Latency[c] < 0 {
			return fmt.Errorf("netmodel: negative latency for %v", c)
		}
		if p.Bandwidth[c] <= 0 {
			return fmt.Errorf("netmodel: non-positive bandwidth for %v", c)
		}
	}
	if p.SendOverhead < 0 || p.ReduceRate <= 0 || p.CopyRate <= 0 {
		return errors.New("netmodel: invalid overhead/rate parameters")
	}
	if p.NonP2Penalty < 1 {
		return errors.New("netmodel: NonP2Penalty must be >= 1")
	}
	if p.NonP2Alpha < 1 {
		return errors.New("netmodel: NonP2Alpha must be >= 1")
	}
	return nil
}

// Env captures the dynamic, per-job environment: the non-programmatic
// variables of Section II-B. A fresh Env is sampled for every job; two
// jobs with the same programmatic features can easily differ by >2x in
// effective latency, which is why models cannot be reused across jobs.
type Env struct {
	LatencyFactor   float64 // multiplies network (non-intra-node) latencies
	BandwidthFactor float64 // divides network bandwidths (congestion), >= 1
	NoiseSigma      float64 // relative sigma of multiplicative measurement noise

	// HeteroEvery/HeteroFactor model heterogeneous node speed (the
	// scenario matrix's slow-node variant): every HeteroEvery-th
	// allocated node — allocation order, so indices HeteroEvery-1,
	// 2*HeteroEvery-1, … — moves bytes HeteroFactor× slower on every
	// path touching it. HeteroEvery of zero (the zero value and the
	// default) disables the mechanism entirely.
	HeteroEvery  int     // every k-th allocated node is slow; 0 disables
	HeteroFactor float64 // slowdown multiplier for slow nodes, >= 1
}

// DefaultEnv is a calm, uncongested environment with mild noise.
func DefaultEnv() Env {
	return Env{LatencyFactor: 1, BandwidthFactor: 1, NoiseSigma: 0.02}
}

// SampleEnv draws a per-job environment. The latency factor combines a
// base congestion draw with the allocation's spread (a scattered
// allocation crosses more global links and suffers more interference),
// reproducing the paper's observation of >2x latency variation across
// jobs. The draw is deterministic for a given rng state.
func SampleEnv(rng *rand.Rand, alloc cluster.Allocation) Env {
	congestion := 1 + rng.Float64()*0.8              // background traffic: 1.0–1.8
	spread := 1 + 0.25*math.Max(alloc.Spread()-1, 0) // compact=1.0 … scattered=1.5
	return Env{
		LatencyFactor:   congestion * spread,
		BandwidthFactor: 1 + rng.Float64()*0.5,
		NoiseSigma:      0.02 + rng.Float64()*0.03,
	}
}

// Validate checks the environment for sanity.
func (e Env) Validate() error {
	if e.LatencyFactor < 1 || e.BandwidthFactor < 1 || e.NoiseSigma < 0 {
		return errors.New("netmodel: environment factors must be >= 1 (noise >= 0)")
	}
	if e.HeteroEvery < 0 {
		return errors.New("netmodel: HeteroEvery must be >= 0")
	}
	if e.HeteroEvery > 0 && e.HeteroFactor < 1 {
		return errors.New("netmodel: HeteroFactor must be >= 1 when HeteroEvery is set")
	}
	return nil
}

// Model binds the static parameters, a job's allocation and rank layout,
// and the job's dynamic environment into a point-to-point cost oracle.
// Model is immutable after construction and safe for concurrent use.
//
// Transfer is on the path of every simulated message, so a Model
// prepares what it can at construction: the (alpha, bw) of each path
// class for P2 and non-P2 byte counts with the environment applied, and
// the path class between every pair of allocated nodes. Both hold
// exactly the values the arithmetic in Transfer's doc comment produces,
// computed by the same floating-point operations in the same order.
type Model struct {
	Params Params
	Env    Env
	Alloc  cluster.Allocation
	PPN    int

	topo   Topology
	nodeIx []int32                     // rank -> index of its node in Alloc.Nodes
	link   [2][numPathClasses]linkCost // [0 P2, 1 non-P2][class]
	paths  []PathClass                 // [a*len(Alloc.Nodes)+b] -> class between allocated nodes a and b
	slowOf []float64                   // rank -> hetero slowdown factor; nil when disabled
}

// linkCost is one path class's startup latency (us) and bandwidth
// (bytes/us) for one kind of byte count, environment applied.
type linkCost struct{ alpha, bw float64 }

// New constructs a Model for a job with the given processes per node on
// the default Dragonfly topology of the allocation's machine. Every
// allocated node hosts exactly ppn ranks (block placement), so the job
// has Alloc.Size()*ppn ranks.
func New(params Params, env Env, alloc cluster.Allocation, ppn int) (*Model, error) {
	return NewWithTopology(params, env, alloc, ppn, nil)
}

// NewWithTopology is New with an explicit interconnect topology. A nil
// topology selects Dragonfly over the allocation's machine, which is
// byte-for-byte the historical behaviour of New.
func NewWithTopology(params Params, env Env, alloc cluster.Allocation, ppn int, topo Topology) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	if ppn <= 0 {
		return nil, errors.New("netmodel: non-positive ppn")
	}
	if ppn > alloc.Machine.CoresPerNode {
		return nil, fmt.Errorf("netmodel: ppn %d exceeds %d cores per node", ppn, alloc.Machine.CoresPerNode)
	}
	if topo == nil {
		topo = dragonfly{alloc.Machine}
	}
	for _, node := range alloc.Nodes {
		if node >= topo.Nodes() {
			return nil, fmt.Errorf("netmodel: allocated node %d outside %s topology (%d nodes)",
				node, topo.Name(), topo.Nodes())
		}
	}
	nodes := alloc.Size()
	n := nodes * ppn
	m := &Model{Params: params, Env: env, Alloc: alloc, PPN: ppn, topo: topo,
		nodeIx: make([]int32, n), paths: make([]PathClass, nodes*nodes)}
	for r := range m.nodeIx {
		m.nodeIx[r] = int32(r / ppn)
	}
	// Same node is IntraNode, the zero value; the topology classifies
	// the rest, and ClassBetween is symmetric.
	for a, na := range alloc.Nodes {
		for b := a + 1; b < nodes; b++ {
			if nb := alloc.Nodes[b]; na != nb {
				c := topo.ClassBetween(na, nb)
				m.paths[a*nodes+b], m.paths[b*nodes+a] = c, c
			}
		}
	}
	for c := PathClass(0); c < numPathClasses; c++ {
		alpha := params.Latency[c]
		bw := params.Bandwidth[c]
		if c != IntraNode {
			alpha *= env.LatencyFactor
			bw /= env.BandwidthFactor
		}
		m.link[0][c] = linkCost{alpha, bw}
		bw /= params.NonP2Penalty
		alpha *= params.NonP2Alpha
		m.link[1][c] = linkCost{alpha, bw}
	}
	if env.HeteroEvery > 0 {
		m.slowOf = make([]float64, n)
		for r := 0; r < n; r++ {
			if (r/ppn+1)%env.HeteroEvery == 0 {
				m.slowOf[r] = env.HeteroFactor
			} else {
				m.slowOf[r] = 1
			}
		}
	}
	return m, nil
}

// Topology returns the interconnect topology the model prices paths on.
func (m *Model) Topology() Topology { return m.topo }

// Ranks returns the total number of ranks in the job.
func (m *Model) Ranks() int { return len(m.nodeIx) }

// class returns the path class between two ranks.
func (m *Model) class(from, to int) PathClass {
	return m.paths[int(m.nodeIx[from])*len(m.Alloc.Nodes)+int(m.nodeIx[to])]
}

// Transfer returns the wire time in microseconds for a message of the
// given size between two ranks: alpha + bytes/beta for the path's
// class. On network (non-intra-node) paths alpha is multiplied by the
// environment's LatencyFactor and beta divided by its BandwidthFactor;
// a non-P2 byte count then divides beta by NonP2Penalty and multiplies
// alpha by NonP2Alpha; and a path touching a slow node takes
// HeteroFactor times as long.
func (m *Model) Transfer(from, to int, bytes int) float64 {
	// Zero-byte messages are pure control traffic — no payload, no
	// pipeline to misalign — so they pay plain alpha.
	nonP2 := 0
	if bytes > 0 && !isP2(bytes) {
		nonP2 = 1
	}
	l := &m.link[nonP2][m.class(from, to)]
	t := l.alpha + float64(bytes)/l.bw
	// Heterogeneous node speed: any path touching a slow node (even
	// intra-node shared memory) drains at that node's pace. max keeps
	// Transfer symmetric in direction.
	if m.slowOf != nil {
		t *= math.Max(m.slowOf[from], m.slowOf[to])
	}
	return t
}

// SendOverhead returns the CPU time the sender spends injecting one
// message (independent of destination).
func (m *Model) SendOverhead() float64 { return m.Params.SendOverhead }

// ReduceCost returns the CPU time to combine bytes of reduction
// operands, including the non-P2 alignment penalty.
func (m *Model) ReduceCost(bytes int) float64 {
	rate := m.Params.ReduceRate
	if !isP2(bytes) {
		rate /= m.Params.NonP2Penalty
	}
	return float64(bytes) / rate
}

// CopyCost returns the CPU time to copy bytes locally, including the
// non-P2 alignment penalty.
func (m *Model) CopyCost(bytes int) float64 {
	rate := m.Params.CopyRate
	if !isP2(bytes) {
		rate /= m.Params.NonP2Penalty
	}
	return float64(bytes) / rate
}
