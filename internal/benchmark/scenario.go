// Scenario matrix: the "scenario diversity" harness. A Scenario is a
// named perturbation of the job's dynamic environment (the
// non-programmatic variables of Section II-B), and the matrix runner
// measures every (collective × algorithm) cell of one feature point
// under every requested (topology × scenario) combination — the grid
// the Hunold performance-guidelines methodology assumes and the seed
// repo could not reach with one Dragonfly model and a calm environment.

package benchmark

import (
	"fmt"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
)

// Scenario names one dynamic-environment variant of the matrix.
type Scenario int

// The matrix's four environment variants.
const (
	Baseline        Scenario = iota // the base environment untouched
	DegradedLinks                   // link bandwidth cut to a quarter
	CongestionStorm                 // startup latency 8x, noisy measurements
	HeteroNodes                     // every 4th allocated node runs 3x slower
	numScenarios
)

// String implements fmt.Stringer with CLI-flag spellings.
func (s Scenario) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case DegradedLinks:
		return "degraded-links"
	case CongestionStorm:
		return "congestion-storm"
	case HeteroNodes:
		return "hetero-nodes"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ParseScenario converts a name produced by String back to a Scenario.
func ParseScenario(name string) (Scenario, error) {
	for s := Scenario(0); s < numScenarios; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("benchmark: unknown scenario %q (valid: %v)", name, allScenarios())
}

// allScenarios returns all scenarios in stable order.
func allScenarios() []Scenario {
	ss := make([]Scenario, numScenarios)
	for i := range ss {
		ss[i] = Scenario(i)
	}
	return ss
}

// Apply derives the scenario's environment from a base environment. The
// perturbations compose with whatever congestion the base already
// carries, so a sampled job environment can be stormed on top.
func (s Scenario) Apply(env netmodel.Env) netmodel.Env {
	switch s {
	case DegradedLinks:
		env.BandwidthFactor *= 4
	case CongestionStorm:
		env.LatencyFactor *= 8
		if env.NoiseSigma < 0.1 {
			env.NoiseSigma = 0.1
		}
	case HeteroNodes:
		env.HeteroEvery = 4
		env.HeteroFactor = 3
	}
	return env
}

// Cell identifies one point of the scenario matrix.
type Cell struct {
	Coll     coll.Collective
	Alg      string
	Topology string
	Scenario Scenario
	Point    featspace.Point
}

// String renders the cell compactly.
func (c Cell) String() string {
	return fmt.Sprintf("%v/%s@%v on %s under %v", c.Coll, c.Alg, c.Point, c.Topology, c.Scenario)
}

// CellResult is one measured matrix cell.
type CellResult struct {
	Cell     Cell
	MeanTime float64 // mean per-iteration collective time (us)
	WallTime float64 // machine time the measurement occupied (us)
}

// MatrixConfig scopes one scenario-matrix run.
type MatrixConfig struct {
	Params      netmodel.Params
	Env         netmodel.Env // base environment each scenario perturbs
	Alloc       cluster.Allocation
	Bench       Config
	Collectives []coll.Collective // nil: all registered collectives
	Topologies  []string          // nil: all of netmodel.TopologyNames()
	Scenarios   []Scenario        // nil: all scenarios
	Point       featspace.Point
}

// RunMatrix measures every (collective × algorithm × topology ×
// scenario) cell at the config's feature point, in stable cell order.
// Each (topology, scenario) pair gets its own Runner so the scenario's
// environment perturbation and the topology's path classification apply
// to every algorithm identically.
func RunMatrix(cfg MatrixConfig) ([]CellResult, error) {
	if err := cfg.Point.Validate(); err != nil {
		return nil, err
	}
	collectives := cfg.Collectives
	if collectives == nil {
		collectives = coll.Collectives()
	}
	topologies := cfg.Topologies
	if topologies == nil {
		topologies = netmodel.TopologyNames()
	}
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = allScenarios()
	}
	var out []CellResult
	for _, topoName := range topologies {
		topo, err := netmodel.TopologyByName(topoName, cfg.Alloc.Machine)
		if err != nil {
			return nil, err
		}
		for _, sc := range scenarios {
			runner, err := NewRunner(cfg.Params, sc.Apply(cfg.Env), cfg.Alloc, cfg.Bench)
			if err != nil {
				return nil, fmt.Errorf("benchmark: %s/%v: %w", topo.Name(), sc, err)
			}
			runner.Topology = topo
			for _, c := range collectives {
				for _, alg := range coll.AlgorithmNames(c) {
					cell := Cell{Coll: c, Alg: alg, Topology: topo.Name(), Scenario: sc, Point: cfg.Point}
					m, err := runner.Run(Spec{Coll: c, Alg: alg, Point: cfg.Point})
					if err != nil {
						return nil, fmt.Errorf("benchmark: cell %v: %w", cell, err)
					}
					out = append(out, CellResult{Cell: cell, MeanTime: m.MeanTime, WallTime: m.WallTime})
				}
			}
		}
	}
	return out, nil
}
