// Topology abstraction: the paper's machine is an Aries Dragonfly
// (Figure 8), but the "scenario diversity" extension reproduces the
// same experiments on fat-tree and 3D-torus machines. A Topology maps a
// pair of physical nodes to the PathClass whose Hockney parameters
// price the transfer; everything above the Model (collectives, tuners,
// rule serving) is topology-blind.

package netmodel

import (
	"errors"
	"fmt"

	"acclaim/internal/cluster"
)

// Topology describes how an interconnect wires physical nodes together.
// ClassBetween must be symmetric and is only called with two distinct
// node IDs (same-node traffic is IntraNode by definition and handled by
// the Model before the topology is consulted).
type Topology interface {
	// Name identifies the topology for CLI flags and run reports.
	Name() string
	// Nodes returns how many physical nodes the topology wires up;
	// allocations must stay inside [0, Nodes).
	Nodes() int
	// ClassBetween classifies the path between two distinct nodes.
	ClassBetween(a, b int) PathClass
}

// dragonfly is the paper's simplified Aries machine, the Figure 8
// three-layer classification of a cluster.Machine: racks form layer 1,
// paired racks share a layer-2 link, and rack pairs meet on the global
// layer. It is the default topology of New and reproduces Model's
// historical classification exactly.
type dragonfly struct{ m cluster.Machine }

func (d dragonfly) Name() string { return "dragonfly" }
func (d dragonfly) Nodes() int   { return d.m.Nodes }

func (d dragonfly) ClassBetween(a, b int) PathClass {
	ra, rb := d.m.RackOf(a), d.m.RackOf(b)
	switch {
	case ra == rb:
		return IntraRack
	case d.m.PairOf(ra) == d.m.PairOf(rb):
		return RackPair
	default:
		return Global
	}
}

// fatTree is a three-tier fat-tree: nodes hang off leaf switches, leaves
// group into pods behind aggregation switches, and pods meet at the
// core. Same leaf → IntraRack, same pod → RackPair, across pods →
// Global. With two leaves per pod it degenerates to the Dragonfly
// classification (leaf = rack, pod = rack pair), which the parity test
// pins.
type fatTree struct {
	nodes   int
	perLeaf int // nodes per leaf switch
	perPod  int // nodes per pod = perLeaf * leavesPerPod
}

// newFatTree builds a fat-tree over the given node count with nodesPerLeaf
// nodes under each leaf switch and leavesPerPod leaves in each pod.
func newFatTree(nodes, nodesPerLeaf, leavesPerPod int) (Topology, error) {
	if nodes <= 0 || nodesPerLeaf <= 0 || leavesPerPod <= 0 {
		return nil, errors.New("netmodel: fat-tree dimensions must be positive")
	}
	return fatTree{nodes: nodes, perLeaf: nodesPerLeaf, perPod: nodesPerLeaf * leavesPerPod}, nil
}

func (f fatTree) Name() string { return "fat-tree" }
func (f fatTree) Nodes() int   { return f.nodes }

func (f fatTree) ClassBetween(a, b int) PathClass {
	switch {
	case a/f.perLeaf == b/f.perLeaf:
		return IntraRack
	case a/f.perPod == b/f.perPod:
		return RackPair
	default:
		return Global
	}
}

// torus3D is a 3D torus (wrap-around mesh): node n sits at coordinates
// (n mod x, n/x mod y, n/(x*y)). Distance is the minimal hop count with
// wrap-around per dimension; direct neighbours (1 hop) are IntraRack,
// near nodes (≤3 hops) RackPair, and everything farther Global —
// distance buckets rather than membership groups, which is what makes
// the torus classification genuinely different from the switch
// hierarchies above.
type torus3D struct{ x, y, z int }

// newTorus3D builds an x×y×z torus. All dimensions must be positive and
// the torus must have at least two nodes.
func newTorus3D(x, y, z int) (Topology, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return nil, errors.New("netmodel: torus dimensions must be positive")
	}
	if x*y*z < 2 {
		return nil, errors.New("netmodel: torus needs at least two nodes")
	}
	return torus3D{x: x, y: y, z: z}, nil
}

func (t torus3D) Name() string { return "torus" }
func (t torus3D) Nodes() int   { return t.x * t.y * t.z }

// wrapDist is the minimal ring distance between coordinates on a
// dimension of the given size.
func wrapDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := size - d; w < d {
		d = w
	}
	return d
}

// hops returns the minimal hop count between two nodes.
func (t torus3D) hops(a, b int) int {
	ax, ay, az := a%t.x, (a/t.x)%t.y, a/(t.x*t.y)
	bx, by, bz := b%t.x, (b/t.x)%t.y, b/(t.x*t.y)
	return wrapDist(ax, bx, t.x) + wrapDist(ay, by, t.y) + wrapDist(az, bz, t.z)
}

func (t torus3D) ClassBetween(a, b int) PathClass {
	switch h := t.hops(a, b); {
	case h <= 1:
		return IntraRack
	case h <= 3:
		return RackPair
	default:
		return Global
	}
}

// TopologyNames lists the names TopologyByName accepts, in stable order.
func TopologyNames() []string { return []string{"dragonfly", "fat-tree", "torus"} }

// TopologyByName resolves a CLI topology name against a machine. The
// fat-tree keeps the machine's rack size as its leaf size with four
// leaves per pod; the torus is the smallest cube covering the machine's
// node count. Unknown names return an error listing the valid ones.
func TopologyByName(name string, m cluster.Machine) (Topology, error) {
	switch name {
	case "dragonfly", "":
		return dragonfly{m}, nil
	case "fat-tree", "fattree":
		return newFatTree(m.Nodes, m.NodesPerRack, 4)
	case "torus", "torus3d":
		side := 1
		for side*side*side < m.Nodes {
			side++
		}
		return newTorus3D(side, side, side)
	default:
		return nil, fmt.Errorf("netmodel: unknown topology %q (valid: %v)", name, TopologyNames())
	}
}
