// Command experiments regenerates the data behind every figure in the
// ACCLAiM paper's evaluation (Figures 3–7 and 9–15) from the simulated
// testbed and prints the series as tables.
//
// Usage:
//
//	experiments [-fig N|all] [-space tiny|sim] [-cache path] [-seed N]
//	            [-nodes N] [-ppn N]
//
// -space sim uses the full paper-scale grid (64 nodes, 1 MiB messages);
// collecting its replay dataset takes a few minutes of CPU the first
// time, so -cache is recommended. -nodes/-ppn scale the Figure 14
// production run (paper: 128 nodes, 16 ppn).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"acclaim/internal/benchmark"
	"acclaim/internal/coll"
	"acclaim/internal/experiments"
	"acclaim/internal/featspace"
)

// figures lists every figure the command can regenerate, in order.
var figures = []int{3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command: the figure tables go to stdout, progress
// and timing lines to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "all", "figure to regenerate (3,4,5,6,7,9,10,11,12,13,14,15 or 'all')")
		space = fs.String("space", "tiny", "testbed grid: 'tiny' or 'sim' (paper-scale)")
		cache = fs.String("cache", "", "dataset cache path (used with -space sim)")
		seed  = fs.Int64("seed", 42, "experiment seed")
		nodes = fs.Int("nodes", 32, "production node count for figure 14 (paper: 128)")
		ppn   = fs.Int("ppn", 4, "production max ppn for figure 14 (paper: 16)")

		matrix      = fs.Bool("matrix", false, "run the scenario matrix instead of paper figures")
		matrixColls = fs.String("matrix-collectives", "", "comma-separated collectives for -matrix (default: all)")
		matrixTopos = fs.String("matrix-topologies", "", "comma-separated topologies for -matrix (default: all)")
		matrixScens = fs.String("matrix-scenarios", "", "comma-separated scenarios for -matrix (default: all)")
		msg         = fs.Int("msg", 4096, "message size in bytes for -matrix")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *matrix {
		return runMatrix(stdout, stderr, *matrixColls, *matrixTopos, *matrixScens, *nodes, *ppn, *msg, *seed)
	}

	want := map[int]bool{}
	if *fig == "all" {
		for _, n := range figures {
			want[n] = true
		}
	} else {
		for _, part := range strings.Split(*fig, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -fig value %q", part)
			}
			if !slices.Contains(figures, n) {
				return fmt.Errorf("-fig %d: no such figure (valid: %v or all)", n, figures)
			}
			want[n] = true
		}
	}

	var grid featspace.Space
	switch *space {
	case "tiny":
		grid = experiments.TinySpace()
	case "sim":
		grid = experiments.SimSpace()
	default:
		return fmt.Errorf("unknown -space %q", *space)
	}

	needsLab := false
	for _, n := range []int{3, 5, 6, 7, 9, 10, 11, 12, 13} {
		if want[n] {
			needsLab = true
		}
	}
	var lab *experiments.Lab
	if needsLab {
		start := time.Now()
		fmt.Fprintf(stderr, "building testbed (%d grid points)...\n", grid.Size())
		var err error
		lab, err = experiments.NewLab(grid, *cache, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "testbed ready: %d dataset entries in %v\n", lab.DS.Len(), time.Since(start).Round(time.Millisecond))
	}

	var failed error
	figure := func(n int, f func() (string, error)) {
		if failed != nil || !want[n] {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			failed = fmt.Errorf("figure %d: %w", n, err)
			return
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stderr, "[figure %d done in %v]\n\n", n, time.Since(start).Round(time.Millisecond))
	}

	figure(3, func() (string, error) {
		rows, err := experiments.Fig3(lab, nil)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig3(rows), nil
	})
	figure(4, func() (string, error) {
		rows, agg := experiments.Fig4(*seed)
		return experiments.ReportFig4(rows, agg), nil
	})
	figure(5, func() (string, error) {
		series, err := experiments.Fig5(lab, nil)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig5(series), nil
	})
	figure(6, func() (string, error) {
		rows, err := experiments.Fig6(lab)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig6(rows), nil
	})
	figure(7, func() (string, error) {
		pts, err := experiments.Fig7(lab, coll.Bcast)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig7(pts), nil
	})
	figure(9, func() (string, error) {
		file, err := experiments.Fig9(lab)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("Figure 9 — generated MPICH-style selection file\n")
		if err := file.Write(&b); err != nil {
			return "", err
		}
		return b.String(), nil
	})
	figure(10, func() (string, error) {
		rows, cum, err := experiments.Fig10(lab, 0)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig10(rows, cum), nil
	})
	figure(11, func() (string, error) {
		series, err := experiments.Fig11(lab, nil)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig11(series), nil
	})
	figure(12, func() (string, error) {
		rows, ratio, err := experiments.Fig12(lab)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig12(rows, ratio), nil
	})
	figure(13, func() (string, error) {
		rows, err := experiments.Fig13(lab)
		if err != nil {
			return "", err
		}
		return experiments.ReportFig13(rows), nil
	})

	var prodTotal float64
	figure(14, func() (string, error) {
		rows, total, err := experiments.Fig14(*nodes, *ppn, *seed)
		if err != nil {
			return "", err
		}
		prodTotal = total
		return experiments.ReportFig14(rows, total), nil
	})
	figure(15, func() (string, error) {
		if prodTotal == 0 {
			// Figure 15 needs a training time; derive one from a small
			// production run if figure 14 was not requested.
			_, total, err := experiments.Fig14(*nodes, *ppn, *seed)
			if err != nil {
				return "", err
			}
			prodTotal = total
		}
		rows := experiments.Fig15(prodTotal, nil)
		return experiments.ReportFig15(rows, prodTotal), nil
	})
	return failed
}

// runMatrix parses the -matrix-* lists and prints the scenario matrix.
func runMatrix(stdout, stderr io.Writer, collList, topoList, scenList string, nodes, ppn, msg int, seed int64) error {
	var colls []coll.Collective
	for _, name := range splitList(collList) {
		c, err := coll.ParseCollective(name)
		if err != nil {
			return err
		}
		colls = append(colls, c)
	}
	topos := splitList(topoList)
	var scens []benchmark.Scenario
	for _, name := range splitList(scenList) {
		s, err := benchmark.ParseScenario(name)
		if err != nil {
			return err
		}
		scens = append(scens, s)
	}
	start := time.Now()
	results, err := experiments.ScenarioMatrix(colls, topos, scens, nodes, ppn, msg, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, experiments.ReportScenarioMatrix(results))
	fmt.Fprintf(stderr, "[scenario matrix: %d cells in %v]\n", len(results), time.Since(start).Round(time.Millisecond))
	return nil
}

// splitList splits a comma-separated flag, mapping "" to nil (= all).
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
