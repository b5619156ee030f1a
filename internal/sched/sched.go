// Package sched implements ACCLAiM's topology-aware parallel benchmark
// scheduler (Section IV-D). Given a variance-sorted list of benchmark
// requests and the job's allocation, it greedily packs one "wave" of
// benchmarks onto disjoint sets of sequential nodes, never letting two
// benchmarks share a rack (layer 1) and, by virtue of sequential
// placement, never letting two multi-rack benchmarks share a rack pair
// (layer 2). Waves are executed in parallel; the paper reports 1–1.4x
// collection speedups from 1–4 simultaneous benchmarks.
package sched

import (
	"errors"
	"fmt"

	"acclaim/internal/cluster"
	"acclaim/internal/obs"
)

// Metrics are the scheduler's registry handles. Build with NewMetrics;
// pass them to PlanAllObs (nil disables recording).
type Metrics struct {
	Waves    *obs.Counter      // sched.waves_total: planned waves
	WaveSize *obs.HDRHistogram // sched.wave_size: benchmarks packed per wave
	// Stalls counts layer-conflict stalls: requests that were ready but
	// had to wait for a later wave because placing them would share a
	// rack (layer 1) or rack pair (layer 2) with an earlier placement.
	Stalls *obs.Counter // sched.stalls_total
}

// NewMetrics registers the scheduler metric set on reg (nil reg gives
// all-nil, no-op handles).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Waves:    reg.Counter("sched.waves_total"),
		WaveSize: reg.Histogram("sched.wave_size"),
		Stalls:   reg.Counter("sched.stalls_total"),
	}
}

// Request asks for one benchmark run needing Nodes nodes. Priority is
// the jackknife variance of the underlying training point: higher runs
// first. ID is an opaque caller token (e.g. candidate index).
type Request struct {
	ID       int
	Nodes    int
	Priority float64
}

// Placement is a scheduled request bound to concrete positions in the
// allocation. NodeIdx indexes alloc.Nodes (not physical node IDs).
type Placement struct {
	Request
	NodeIdx []int
}

// PhysicalNodes resolves the placement to physical node IDs.
func (p Placement) PhysicalNodes(alloc cluster.Allocation) []int {
	nodes := make([]int, len(p.NodeIdx))
	for i, idx := range p.NodeIdx {
		nodes[i] = alloc.Nodes[idx]
	}
	return nodes
}

// PlanWave runs the paper's greedy algorithm over the requests, which
// must already be sorted by descending priority (the caller sorts by
// variance). It returns the placements of one wave and the requests
// that did not fit. The algorithm:
//
//  1. Take the highest-priority unscheduled request p needing n nodes.
//  2. Try to place p on the next n unused sequential nodes.
//  3. If it fits, mark those nodes — and all remaining nodes in the
//     racks they touch — as used, and repeat.
//  4. If it does not fit, stop and run the wave.
func PlanWave(alloc cluster.Allocation, reqs []Request) (wave []Placement, unplaced []Request) {
	return planWaveObs(alloc, reqs, nil)
}

// planWaveObs is PlanWave with observability: when met is non-nil it
// records the wave's size and counts the requests stalled past the
// wave boundary by the congestion constraints.
func planWaveObs(alloc cluster.Allocation, reqs []Request, met *Metrics) (wave []Placement, unplaced []Request) {
	wave, unplaced = planWave(alloc, reqs)
	if met != nil {
		met.Waves.Inc()
		met.WaveSize.Observe(float64(len(wave)))
		met.Stalls.Add(uint64(len(unplaced)))
	}
	return wave, unplaced
}

func planWave(alloc cluster.Allocation, reqs []Request) (wave []Placement, unplaced []Request) {
	n := alloc.Size()
	used := make([]bool, n)
	cursor := 0
	for ri, req := range reqs {
		if req.Nodes <= 0 || req.Nodes > n {
			// Unsatisfiable on this allocation; pass it back.
			unplaced = append(unplaced, reqs[ri:]...)
			return wave, unplaced
		}
		// Advance to the first unused node.
		for cursor < n && used[cursor] {
			cursor++
		}
		if cursor+req.Nodes > n {
			unplaced = append(unplaced, reqs[ri:]...)
			return wave, unplaced
		}
		// The next req.Nodes sequential positions must all be unused;
		// because we consume racks wholesale, they always are once the
		// cursor is on an unused node — but verify defensively.
		idx := make([]int, req.Nodes)
		for i := 0; i < req.Nodes; i++ {
			if used[cursor+i] {
				unplaced = append(unplaced, reqs[ri:]...)
				return wave, unplaced
			}
			idx[i] = cursor + i
		}
		wave = append(wave, Placement{Request: req, NodeIdx: idx})
		// Mark the placed nodes and every remaining node in the touched
		// racks as used.
		touched := make(map[int]bool)
		for _, i := range idx {
			used[i] = true
			touched[alloc.Machine.RackOf(alloc.Nodes[i])] = true
		}
		for i := cursor; i < n; i++ {
			if !used[i] && touched[alloc.Machine.RackOf(alloc.Nodes[i])] {
				used[i] = true
			}
		}
		cursor += req.Nodes
	}
	return wave, nil
}

// PlanAll repeatedly plans waves until every request is scheduled,
// returning the full multi-wave schedule. It returns an error if some
// request can never fit (needs more nodes than the allocation has).
func PlanAll(alloc cluster.Allocation, reqs []Request) ([][]Placement, error) {
	return PlanAllObs(alloc, reqs, nil)
}

// PlanAllObs is PlanAll with per-wave observability recorded on met
// (nil disables recording).
func PlanAllObs(alloc cluster.Allocation, reqs []Request, met *Metrics) ([][]Placement, error) {
	var waves [][]Placement
	pending := append([]Request(nil), reqs...)
	for len(pending) > 0 {
		wave, rest := planWaveObs(alloc, pending, met)
		if len(wave) == 0 {
			return nil, fmt.Errorf("sched: request for %d nodes cannot fit on %d-node allocation",
				rest[0].Nodes, alloc.Size())
		}
		waves = append(waves, wave)
		pending = rest
	}
	return waves, nil
}

// ErrConflict reports a wave whose placements would share network
// resources the paper's constraints forbid.
var ErrConflict = errors.New("sched: wave violates congestion constraints")

// CheckWave verifies the paper's congestion-freedom invariants for one
// wave: no two placements share a rack, and no two multi-rack placements
// share a rack pair. It returns ErrConflict (wrapped with detail) on
// violation.
func CheckWave(alloc cluster.Allocation, wave []Placement) error {
	rackOwner := make(map[int]int) // rack -> placement index
	pairOwner := make(map[int]int) // rack pair -> placement index (multi-rack runs only)
	for pi, p := range wave {
		racks := make(map[int]bool)
		for _, idx := range p.NodeIdx {
			racks[alloc.Machine.RackOf(alloc.Nodes[idx])] = true
		}
		for r := range racks {
			if prev, ok := rackOwner[r]; ok && prev != pi {
				return fmt.Errorf("%w: placements %d and %d share rack %d", ErrConflict, prev, pi, r)
			}
			rackOwner[r] = pi
		}
		if len(racks) > 1 {
			for r := range racks {
				pair := alloc.Machine.PairOf(r)
				if prev, ok := pairOwner[pair]; ok && prev != pi {
					return fmt.Errorf("%w: multi-rack placements %d and %d share rack pair %d", ErrConflict, prev, pi, pair)
				}
				pairOwner[pair] = pi
			}
		}
	}
	return nil
}

// Parallelism summarises a schedule: how many benchmarks ran in each
// wave (the paper's Figure 13(b) series).
func Parallelism(waves [][]Placement) []int {
	out := make([]int, len(waves))
	for i, w := range waves {
		out[i] = len(w)
	}
	return out
}
