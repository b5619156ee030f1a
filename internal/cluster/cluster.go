// Package cluster models the physical structure of the target
// supercomputer: nodes grouped into racks, racks grouped into pairs, and
// pairs joined by a global layer — the simplified Aries Dragonfly
// topology of Figure 8 in the ACCLAiM paper. It also models job
// allocations, including the fragmented, spread-out allocations produced
// by a best-effort scheduler such as Theta's (Section II-B), which are
// the root cause of the >2x job-to-job latency variation the paper
// reports.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"acclaim/internal/obs"
)

// Machine describes a cluster's physical layout. Nodes are numbered
// sequentially within a rack and across racks (Figure 8).
type Machine struct {
	Nodes        int // total node count
	NodesPerRack int // nodes per rack (layer 1 domain)
	CoresPerNode int // hardware threads per node (64 on Theta)
}

// Theta returns a machine shaped like the paper's production target:
// 4,392 nodes, 64 cores each. The per-rack node count is chosen to match
// the simplified Figure 8 topology.
func Theta() Machine {
	return Machine{Nodes: 4392, NodesPerRack: 64, CoresPerNode: 64}
}

// Bebop returns a machine shaped like the cluster behind the paper's
// precollected dataset: 64 usable nodes with 36 cores (32 used).
func Bebop() Machine {
	return Machine{Nodes: 128, NodesPerRack: 16, CoresPerNode: 36}
}

// Validate checks the machine description for consistency.
func (m Machine) Validate() error {
	switch {
	case m.Nodes <= 0:
		return errors.New("cluster: machine has no nodes")
	case m.NodesPerRack <= 0:
		return errors.New("cluster: non-positive nodes per rack")
	case m.CoresPerNode <= 0:
		return errors.New("cluster: non-positive cores per node")
	}
	return nil
}

// RackOf returns the rack index holding the given physical node.
func (m Machine) RackOf(node int) int { return node / m.NodesPerRack }

// PairOf returns the rack-pair index of a rack (layer 2 domain: every
// two racks share a second-layer link, per Figure 8).
func (m Machine) PairOf(rack int) int { return rack / 2 }

// PairOfNode returns the rack-pair index holding the given node.
func (m Machine) PairOfNode(node int) int { return m.PairOf(m.RackOf(node)) }

// Allocation is the set of physical nodes a job received, in scheduler
// order. Ranks are laid out block-wise: rank r runs on
// Nodes[r / ppn].
type Allocation struct {
	Machine Machine
	Nodes   []int // physical node IDs in allocation order
}

// Validate checks that the allocation references valid, distinct nodes.
func (a Allocation) Validate() error {
	if err := a.Machine.Validate(); err != nil {
		return err
	}
	if len(a.Nodes) == 0 {
		return errors.New("cluster: empty allocation")
	}
	seen := make(map[int]bool, len(a.Nodes))
	for _, n := range a.Nodes {
		if n < 0 || n >= a.Machine.Nodes {
			return fmt.Errorf("cluster: node %d outside machine (%d nodes)", n, a.Machine.Nodes)
		}
		if seen[n] {
			return fmt.Errorf("cluster: duplicate node %d in allocation", n)
		}
		seen[n] = true
	}
	return nil
}

// Size returns the number of allocated nodes.
func (a Allocation) Size() int { return len(a.Nodes) }

// RackSpan returns how many distinct racks the allocation touches.
func (a Allocation) RackSpan() int {
	racks := make(map[int]bool)
	for _, n := range a.Nodes {
		racks[a.Machine.RackOf(n)] = true
	}
	return len(racks)
}

// PairSpan returns how many distinct rack pairs the allocation touches.
func (a Allocation) PairSpan() int {
	pairs := make(map[int]bool)
	for _, n := range a.Nodes {
		pairs[a.Machine.PairOfNode(n)] = true
	}
	return len(pairs)
}

// Spread quantifies how scattered the allocation is, as the mean over
// all node pairs of a per-pair distance score: 0 for same node pairings
// (not possible here), 1 for same rack, 2 for same rack pair, 3 for
// global. A perfectly compact allocation inside one rack scores 1; a
// fully scattered allocation approaches 3. Single-node allocations
// score 0.
func (a Allocation) Spread() float64 {
	n := len(a.Nodes)
	if n < 2 {
		return 0
	}
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ri, rj := a.Machine.RackOf(a.Nodes[i]), a.Machine.RackOf(a.Nodes[j])
			switch {
			case ri == rj:
				sum += 1
			case a.Machine.PairOf(ri) == a.Machine.PairOf(rj):
				sum += 2
			default:
				sum += 3
			}
			count++
		}
	}
	return sum / float64(count)
}

// Contiguous allocates n nodes starting at physical node start. It
// returns an error if the range exceeds the machine.
func Contiguous(m Machine, start, n int) (Allocation, error) {
	if n <= 0 {
		return Allocation{}, errors.New("cluster: non-positive allocation size")
	}
	if start < 0 || start+n > m.Nodes {
		return Allocation{}, fmt.Errorf("cluster: range [%d,%d) exceeds machine of %d nodes", start, start+n, m.Nodes)
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = start + i
	}
	return Allocation{Machine: m, Nodes: nodes}, nil
}

// strided allocates n nodes starting at start with the given stride,
// used to construct the paper's Figure 13 "Max Parallel" topology
// (single nodes on racks from separate pairs).
func strided(m Machine, start, n, stride int) (Allocation, error) {
	if n <= 0 || stride <= 0 {
		return Allocation{}, errors.New("cluster: non-positive size or stride")
	}
	last := start + (n-1)*stride
	if start < 0 || last >= m.Nodes {
		return Allocation{}, fmt.Errorf("cluster: strided range ends at %d, machine has %d nodes", last, m.Nodes)
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = start + i*stride
	}
	return Allocation{Machine: m, Nodes: nodes}, nil
}

// Metrics are the allocator's registry handles: how many allocations
// were drawn and how fragmented they came back — rack and pair span
// are the topology properties behind the paper's >2x job-to-job
// latency variation. Build with NewMetrics; pass to BestEffortObs.
type Metrics struct {
	Allocations *obs.Counter   // cluster.allocations_total
	RackSpan    *obs.Histogram // cluster.alloc_rack_span: racks touched per allocation
	PairSpan    *obs.Histogram // cluster.alloc_pair_span: rack pairs touched per allocation
}

// NewMetrics registers the allocator metric set on reg (nil reg gives
// all-nil, no-op handles).
func NewMetrics(reg *obs.Registry) *Metrics {
	spanBuckets := []float64{1, 2, 4, 8, 16, 32, 64}
	return &Metrics{
		Allocations: reg.Counter("cluster.allocations_total"),
		RackSpan:    reg.Histogram("cluster.alloc_rack_span", spanBuckets...),
		PairSpan:    reg.Histogram("cluster.alloc_pair_span", spanBuckets...),
	}
}

// BestEffort mimics a best-effort scheduler: it draws n distinct nodes
// from the machine as a union of a few random contiguous fragments, so
// allocations range from nearly compact to widely scattered across
// pairs. The result is deterministic for a given rng state.
func BestEffort(m Machine, rng *rand.Rand, n int) (Allocation, error) {
	return BestEffortObs(m, rng, n, nil)
}

// BestEffortObs is BestEffort with observability: when met is non-nil
// the allocation's fragmentation shape is recorded.
func BestEffortObs(m Machine, rng *rand.Rand, n int, met *Metrics) (Allocation, error) {
	a, err := bestEffort(m, rng, n)
	if err == nil && met != nil {
		met.Allocations.Inc()
		met.RackSpan.Observe(float64(a.RackSpan()))
		met.PairSpan.Observe(float64(a.PairSpan()))
	}
	return a, err
}

func bestEffort(m Machine, rng *rand.Rand, n int) (Allocation, error) {
	if n <= 0 || n > m.Nodes {
		return Allocation{}, fmt.Errorf("cluster: cannot allocate %d of %d nodes", n, m.Nodes)
	}
	fragments := 1 + rng.Intn(4) // 1..4 fragments
	if fragments > n {
		fragments = n
	}
	taken := make(map[int]bool, n)
	var nodes []int
	remaining := n
	for f := 0; f < fragments && remaining > 0; f++ {
		size := remaining
		if f < fragments-1 {
			size = 1 + rng.Intn(remaining)
		}
		// Find a random start where at least `size` free nodes exist by
		// scanning forward with wraparound.
		start := rng.Intn(m.Nodes)
		placed := 0
		for off := 0; off < m.Nodes && placed < size; off++ {
			node := (start + off) % m.Nodes
			if !taken[node] {
				taken[node] = true
				nodes = append(nodes, node)
				placed++
			}
		}
		remaining -= placed
	}
	sort.Ints(nodes)
	a := Allocation{Machine: m, Nodes: nodes}
	if err := a.Validate(); err != nil {
		return Allocation{}, err
	}
	return a, nil
}

// Topology presets for the parallel-collection study (Figure 13). Each
// returns a 64-node allocation on a machine sized so the layout is
// exactly the paper's description.

// TopologySingleRack places all 64 nodes in one rack: no parallel
// benchmarking is possible without sharing layer 1.
func TopologySingleRack() Allocation {
	m := Machine{Nodes: 256, NodesPerRack: 64, CoresPerNode: 64}
	a, err := Contiguous(m, 0, 64)
	if err != nil {
		panic(err)
	}
	return a
}

// TopologyRackPair places 32 nodes on each of two racks within one pair.
func TopologyRackPair() Allocation {
	m := Machine{Nodes: 256, NodesPerRack: 32, CoresPerNode: 64}
	a, err := Contiguous(m, 0, 64)
	if err != nil {
		panic(err)
	}
	return a
}

// TopologyTwoPairs places 16 nodes on each of four racks in two pairs.
func TopologyTwoPairs() Allocation {
	m := Machine{Nodes: 256, NodesPerRack: 16, CoresPerNode: 64}
	a, err := Contiguous(m, 0, 64)
	if err != nil {
		panic(err)
	}
	return a
}

// TopologyMaxParallel places single nodes on racks from separate pairs
// (the paper's 1-0-1-0... layout): maximum parallelism potential.
func TopologyMaxParallel() Allocation {
	// One node per rack, every other rack, so consecutive allocation
	// nodes are in different rack pairs.
	m := Machine{Nodes: 512, NodesPerRack: 2, CoresPerNode: 64}
	a, err := strided(m, 0, 64, 4) // stride of two racks = one pair
	if err != nil {
		panic(err)
	}
	return a
}
