package main

import (
	"math"

	"acclaim/internal/stats"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go checks
// that the two lists below and that file agree name for name.
type metricDef struct{ name, unit string }

// endToEnd is what a user of either pipeline sees. Every workload
// reports every one of them (the contract compares each metric on each
// workload), so the names are generic and the meaning of an "operation"
// is the workload's: one tuning job (submission to a validated,
// compiled rule file) on the tune workloads, one request frame round
// trip on the serve workloads. See README.md for the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_mid_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"quality_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the ledger of the traced run; the prefix is the module
// the number belongs to. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"core.rounds", "count"},
	{"core.samples", "count"},
	{"core.machine_s", "sim_s"},
	{"core.slowdown", "ratio"},
	{"core.converged_share", "ratio"},
	{"core.converge_round_p50", "count"},
	{"core.converged_wall_s", "s"},
	{"core.fit_s", "s"},
	{"core.score_s", "s"},
	{"core.pick_s", "s"},
	{"core.collect_s", "s"},
	{"core.residual_s", "s"},
	{"forest.train_ms", "ms"},
	{"forest.compile_ms", "ms"},
	{"forest.score_ns_per_row", "ns"},
	{"forest.predict_ns_per_row", "ns"},
	{"forest.train_rows", "count"},
	{"benchmark.run_calls", "count"},
	{"benchmark.run_busy_s", "s"},
	{"benchmark.run_ms_p50", "ms"},
	{"benchmark.sim_s", "sim_s"},
	{"coll.exec_ms", "ms"},
	{"netmodel.new_us", "us"},
	{"simmpi.msgs_per_exec", "count"},
	{"simmpi.ranks_per_exec", "count"},
	{"sched.plan_us", "us"},
	{"sched.parallel_gain", "ratio"},
	{"dataset.collect_s", "s"},
	{"dataset.entries", "count"},
	{"dataset.replay_hit_share", "ratio"},
	{"dataset.live_fallbacks", "count"},
	{"exhaustive.cell_s", "s"},
	{"exhaustive.cell_specs", "count"},
	{"cluster.alloc_s", "s"},
	{"traces.replay_s", "s"},
	{"traces.calls_replayed", "count"},
	{"traces.app_speedup", "ratio"},
	{"rules.build_s", "s"},
	{"rules.rules_total", "count"},
	{"rules.read_us", "us"},
	{"ruleserver.compile_s", "s"},
	{"ruleserver.compile_us", "us"},
	{"ruleserver.swap_us", "us"},
	{"ruleserver.index_lookup_ns", "ns"},
	{"ruleserver.registry_lookup_ns", "ns"},
	{"ruleserver.record_overhead_ns", "ns"},
	{"ruleserver.wire_pipe_rtt_us", "us"},
	{"ruleserver.wire_tcp_rtt_us", "us"},
	{"ruleserver.wire_socket_us", "us"},
	{"ruleserver.wire_frames", "count"},
	{"ruleserver.wire_queries", "count"},
	{"ruleserver.wire_bytes_per_query", "B"},
	{"ruleserver.lookups_total", "count"},
	{"ruleserver.misses_total", "count"},
	{"ruleserver.reloads", "count"},
	{"ruleserver.reload_fail", "count"},
	{"ruleserver.reload_dropped", "count"},
	{"ruleserver.reload_p50_ms", "ms"},
	{"bench.gen_ns_per_query", "ns"},
	{"bench.gen_share", "ratio"},
	{"bench.rtt_share", "ratio"},
	{"bench.check_share", "ratio"},
	{"bench.ledger_residual_share", "ratio"},
	{"bench.rtt_samples", "count"},
	{"bench.rtt_p999_us", "us"},
	{"bench.warmup_s", "s"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.spans", "count"},
	{"bench.ops_traced", "count"},
}

// exactMetrics repeat bit for bit for one seed: they are simulated
// quantities or counts, never host time. agree.sh requires equality.
var exactMetrics = []string{
	"quality_ratio", // on the tune workloads only; the serve value is 1 unless an answer is wrong
	"core.machine_s", "core.slowdown", "core.samples", "core.rounds",
	"traces.app_speedup", "simmpi.msgs_per_exec", "sched.parallel_gain",
}

// rank is the index of the nearest-rank q-quantile in a sorted sample
// of n values: an exact percentile of the stored samples.
func rank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// midmean is the interquartile mean of a sorted sample: the mean of
// the values between the first and the third quartile. It is the
// benchmark's "typical latency". A serve_single round trip is bimodal
// (about 8.5 us when the reply is handed over on the same processor,
// about 13 us when it crosses to the other one) with the two modes near
// half each, so the median jumps between them from window to window
// (8.8 to 12.4 us over eight runs) while the midmean moves with the mix
// (10.4 to 11.4 us).
func midmean[T uint32 | float64](sorted []T) float64 {
	lo, hi := len(sorted)/4, (3*len(sorted)+3)/4
	var s float64
	for _, v := range sorted[lo:hi] {
		s += float64(v)
	}
	return s / float64(hi-lo)
}

// median is 0 for an empty sample (a probe that had nothing to
// measure) and stats.Median otherwise, which averages the two middle
// values of an even-sized sample as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f * x
	}
	return out
}
