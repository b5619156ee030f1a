package experiments

import (
	"fmt"
	"math"
	"strings"

	"acclaim/internal/traces"
)

// us2s converts simulator microseconds to seconds for display.
func us2s(us float64) float64 { return us / 1e6 }

func fmtTime(us float64) string {
	switch {
	case math.IsNaN(us):
		return "n/a"
	case us >= 60e6:
		return fmt.Sprintf("%.1f min", us/60e6)
	case us >= 1e6:
		return fmt.Sprintf("%.2f s", us2s(us))
	case us >= 1e3:
		return fmt.Sprintf("%.2f ms", us/1e3)
	default:
		return fmt.Sprintf("%.1f us", us)
	}
}

func fmtRatio(r float64) string {
	if math.IsNaN(r) {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", r)
}

// ReportFig3 renders the Figure 3 table.
func ReportFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — avg slowdown vs %% of training points (aggregate over 4 collectives)\n")
	fmt.Fprintf(&b, "%-12s %-10s %-10s\n", "% of points", "Hunold", "FACT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.0f %-10.4f %-10.4f\n", r.Fraction*100, r.Hunold, r.FACT)
	}
	return b.String()
}

// ReportFig4 renders the Figure 4 table.
func ReportFig4(rows []traces.ProfileRow, aggregate float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — %% of non-power-of-two message sizes per application\n")
	fmt.Fprintf(&b, "%-14s %-8s %-10s\n", "application", "nodes", "non-P2 %")
	for _, r := range rows {
		if !r.Available {
			fmt.Fprintf(&b, "%-14s %-8d %-10s\n", r.App, r.Nodes, "(unavailable)")
			continue
		}
		fmt.Fprintf(&b, "%-14s %-8d %-10.1f\n", r.App, r.Nodes, r.NonP2Share*100)
	}
	fmt.Fprintf(&b, "aggregate: %.1f%% (paper: 15.7%%)\n", aggregate*100)
	return b.String()
}

// ReportFig5 renders the Figure 5 series.
func ReportFig5(series []Fig5Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — FACT (P2-only training) avg slowdown by test set, MPI_Bcast\n")
	fmt.Fprintf(&b, "%-12s", "% of points")
	for _, s := range series {
		fmt.Fprintf(&b, " %-22s", s.TestSet)
	}
	b.WriteString("\n")
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].Curve {
		fmt.Fprintf(&b, "%-12.0f", series[0].Curve[i].Fraction*100)
		for _, s := range series {
			fmt.Fprintf(&b, " %-22.4f", s.Curve[i].Slowdown)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ReportFig6 renders the Figure 6 table.
func ReportFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — test set vs training set collection time (FACT)\n")
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-10s\n", "collective", "train time", "test time", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12v %-14s %-14s %-10s\n", r.Coll, fmtTime(r.TrainTime), fmtTime(r.TestTime), fmtRatio(r.Ratio))
	}
	return b.String()
}

// ReportFig7 renders the Figure 7 series.
func ReportFig7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — cumulative variance and avg slowdown vs training time\n")
	fmt.Fprintf(&b, "%-14s %-14s %-12s\n", "time", "variance", "slowdown")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %-14.6g %-12.4f\n", fmtTime(p.Time), p.Variance, p.Slowdown)
	}
	return b.String()
}

// ReportFig10 renders the Figure 10 comparison.
func ReportFig10(rows []Fig10Row, cumulative float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 — time to convergence (avg slowdown <= 1.03), ACCLAiM vs FACT point selection\n")
	fmt.Fprintf(&b, "%-12s %-16s %-16s %-10s\n", "collective", "ACCLAiM", "FACT", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12v %-16s %-16s %-10s\n", r.Coll,
			fmtTime(r.ACCLAiMConv), fmtTime(r.FACTConv), fmtRatio(r.Speedup))
	}
	fmt.Fprintf(&b, "cumulative speedup: %s (paper: 2.25x, best 2.3x)\n", fmtRatio(cumulative))
	return b.String()
}

// ReportFig11 renders the Figure 11 comparison.
func ReportFig11(series []Fig11Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — P2/non-P2 training splits, MPI_Bcast (final avg slowdown)\n")
	fmt.Fprintf(&b, "%-18s %-16s %-16s\n", "training split", "P2 test set", "non-P2 msg test")
	for _, s := range series {
		lastP2 := s.P2Curve[len(s.P2Curve)-1].Slowdown
		lastNP := s.NonP2Curve[len(s.NonP2Curve)-1].Slowdown
		fmt.Fprintf(&b, "%-18s %-16.4f %-16.4f\n", s.Split, lastP2, lastNP)
	}
	return b.String()
}

// ReportFig12 renders the Figure 12 comparison.
func ReportFig12(rows []Fig12Row, ratio float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — variance convergence vs slowdown convergence (ACCLAiM)\n")
	fmt.Fprintf(&b, "%-12s %-16s %-18s %-18s\n", "collective", "variance conv", "slowdown conv", "slowdown@var-conv")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12v %-16s %-18s %-18.4f\n", r.Coll,
			fmtTime(r.VarConvTime), fmtTime(r.SlowdownConvTime), r.SlowdownAtVarConv)
	}
	fmt.Fprintf(&b, "overall (slowdown-conv time / variance-conv time): %s (paper: 1.19x faster)\n", fmtRatio(ratio))
	return b.String()
}

// ReportFig13 renders the Figure 13 table.
func ReportFig13(rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13 — parallel data collection speedup by topology\n")
	fmt.Fprintf(&b, "%-12s %-14s %-10s %-10s %-10s\n", "collective", "topology", "speedup", "max par", "avg par")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12v %-14s %-10.2f %-10d %-10.2f\n",
			r.Coll, r.Topology, r.Speedup, r.MaxParallelism, r.AvgParallelism)
	}
	return b.String()
}

// ReportFig14 renders the Figure 14 table: per-collective training,
// then the machine time of tuning, of the job cell and of both, and
// the measured application speedup.
func ReportFig14(rows []Fig14Row, cell, total, speedup float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14 — ACCLAiM training time on the production machine\n")
	fmt.Fprintf(&b, "%-12s %-14s %-10s %-10s %-10s\n", "collective", "train time", "samples", "converged", "max wave")
	var tuning float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12v %-14s %-10d %-10v %-10d\n",
			r.Coll, fmtTime(r.TrainTime), r.Samples, r.Converged, r.MaxWaveSize)
		tuning += r.TrainTime
	}
	fmt.Fprintf(&b, "machine time: tuning %s + job cell %s = %s (paper: minutes at 128 nodes)\n",
		fmtTime(tuning), fmtTime(cell), fmtTime(total))
	fmt.Fprintf(&b, "%s collective speedup, tuned file vs library defaults: %.3fx\n", fig14App, speedup)
	return b.String()
}

// ReportFig15 renders the Figure 15 table. A speedup that never pays
// the training back reads "never".
func ReportFig15(rows []Fig15Row, trainTimeUS float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15 — minimum application runtime for net gain (machine time %s)\n", fmtTime(trainTimeUS))
	fmt.Fprintf(&b, "%-14s %-18s\n", "app speedup", "min runtime (h)")
	for _, r := range rows {
		hours := "never"
		if !math.IsInf(r.MinRuntimeHours, 1) {
			hours = fmt.Sprintf("%.2f", r.MinRuntimeHours)
		}
		line := fmt.Sprintf("%-14.3f %-18s", r.AppSpeedup, hours)
		if r.Measured {
			line += "measured (" + fig14App + ", Figure 14)"
		}
		fmt.Fprintln(&b, line)
	}
	return b.String()
}
