package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/dataset"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
	"acclaim/internal/rules"
)

// The serving workloads read two committed rule files, so their numbers
// do not move when the tuner changes. This is the recipe that made
// them: the exhaustively optimal rules of a 64-node, ppn <= 8 job on two
// different machines, lowered with rules.BuildTable.
var fixtureRecipes = []struct {
	file, topo, scen string
	seed             int64
}{
	{"rules_a.json", "dragonfly", "baseline", 1001},
	{"rules_b.json", "torus", "congestion-storm", 1002},
}

// minFixtureDiff is the share of grid cells on which the two fixtures
// must disagree, so that a reload visibly changes answers.
const minFixtureDiff = 0.10

func writeFixtures(dir string) error {
	if dir == "" {
		dir = "testdata"
		if _, err := os.Stat("bench"); err == nil {
			dir = filepath.Join("bench", "testdata")
		}
	}
	space := featspace.P2Grid(64, 8, 8, maxMsg)
	files := make([]*rules.File, len(fixtureRecipes))
	for i, rc := range fixtureRecipes {
		f, err := optimalRules(space, rc.topo, rc.scen, rc.seed)
		if err != nil {
			return err
		}
		f.Comment = fmt.Sprintf("bench fixture: exhaustive optimum, %s/%s, seed %d (go run ./bench -gen-fixtures)", rc.topo, rc.scen, rc.seed)
		files[i] = f
	}
	cells, differ := 0, 0
	for _, c := range coll.Collectives() {
		for _, p := range space.Points() {
			a, errA := files[0].Tables[c.String()].Select(p.Nodes, p.PPN, p.MsgBytes)
			b, errB := files[1].Tables[c.String()].Select(p.Nodes, p.PPN, p.MsgBytes)
			if err := errors.Join(errA, errB); err != nil {
				return err
			}
			cells++
			if a != b {
				differ++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "fixtures differ on %d of %d cells (%.1f%%)\n", differ, cells, 100*float64(differ)/float64(cells))
	if float64(differ) < minFixtureDiff*float64(cells) {
		return fmt.Errorf("fixtures differ on only %d of %d cells", differ, cells)
	}
	for i, rc := range fixtureRecipes {
		if err := files[i].WriteFile(filepath.Join(dir, rc.file)); err != nil {
			return err
		}
	}
	return nil
}

// optimalRules sweeps the grid on one simulated machine and lowers the
// per-point winners to a rule file. BuildTable also asks for the non-P2
// midpoint between two sizes whose winners differ; those are measured on
// the spot.
func optimalRules(space featspace.Space, topoName, scenName string, seed int64) (*rules.File, error) {
	topo, err := netmodel.TopologyByName(topoName, cluster.Theta())
	if err != nil {
		return nil, err
	}
	scen, err := benchmark.ParseScenario(scenName)
	if err != nil {
		return nil, err
	}
	runner, err := submit(seed, space.Nodes[len(space.Nodes)-1], scen, topo)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Collect(runner, space.Points(), dataset.CollectOptions{})
	if err != nil {
		return nil, err
	}
	file := rules.NewFile("theta-sim")
	for _, c := range coll.Collectives() {
		var selErr error
		table := rules.BuildTable(c.String(), space, func(p featspace.Point) string {
			if alg, _, ok := ds.Best(c, p); ok {
				return alg
			}
			best, bestT := "", 0.0
			for _, alg := range coll.AlgorithmNames(c) {
				m, err := runner.Run(benchmark.Spec{Coll: c, Alg: alg, Point: p})
				if err != nil {
					selErr = err
				}
				if best == "" || m.MeanTime < bestT {
					best, bestT = alg, m.MeanTime
				}
			}
			return best
		})
		if selErr != nil {
			return nil, selErr
		}
		file.Tables[c.String()] = table
	}
	return file, file.Validate()
}
