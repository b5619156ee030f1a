// Command acclaim-loadgen is the SLO load-generation harness for the
// serving path. It fires a mixed (collective, nodes, ppn, message-size)
// query stream at a rule server — in-process from a tuned rule file, or
// out-of-process over the batched binary wire protocol against
// acclaim-serve -tcp — and writes an acclaim.load_report/v1 JSON
// document with coordinated-omission-corrected latency quantiles,
// throughput, and per-collective hit rates.
//
// Closed-loop capacity measurement against a rule file, with a
// benchguard-parseable summary line on stdout:
//
//	acclaim-loadgen -rules tuned.json -mode closed -workers 4 \
//	    -requests 2000000 -out load_report.json -bench LoadSmoke
//
// Open-loop saturation sweep:
//
//	acclaim-loadgen -rules tuned.json \
//	    -sweep 200000,400000,800000 -requests 500000 -out sweep.json
//
// Batched multi-tenant run over the binary wire protocol: -batch packs
// that many queries per frame, and -tenants N spreads the stream
// (uniformly or zipf-skewed) across registry shards t0/default/default
// through t<N-1>/default/default — the shard-key convention
// acclaim-serve's -tenant flag pairs with (with -rules, the file is
// loaded into each of those shards in-process):
//
//	acclaim-serve -tcp :9090 -tenant t0/default/default=tuned.json &
//	acclaim-loadgen -tcp localhost:9090 -batch 64 -mode closed \
//	    -requests 2000000 -out load_tcp.json \
//	    -bench TCPLoadSmoke -bench-prefix tcp_
//
// The -bench line (`Benchmark<name> 1 <dur> ns/op <qps> throughput_qps
// <p99> p99_ns`) pipes straight into cmd/benchguard, whose -floor and
// -ceiling flags turn the run into a CI SLO gate; -bench-prefix renames
// the metric units (tcp_throughput_qps, tcp_p99_ns) so one pipeline can
// gate several targets without collisions.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"acclaim/internal/coll"
	"acclaim/internal/loadgen"
	"acclaim/internal/ruleserver"
)

func main() {
	var (
		rulesPath   = flag.String("rules", "", "tuned rule file for an in-process target (mutually exclusive with -tcp)")
		tcp         = flag.String("tcp", "", "out-of-process target: acclaim-serve -tcp address for the binary protocol (mutually exclusive with -rules)")
		mode        = flag.String("mode", "closed", "driver: closed (capacity) or open (fixed offered rate, CO-corrected)")
		workers     = flag.Int("workers", 4, "concurrent workers")
		requests    = flag.Int("requests", 1000000, "total requests (per sweep step when -sweep is given)")
		rate        = flag.Float64("rate", 0, "open mode: total offered rate in queries/sec")
		batch       = flag.Int("batch", 0, "queries per transport round trip (>1 needs a batching target, i.e. -tcp)")
		tenants     = flag.Int("tenants", 0, "tenant shards to mix across; tenant i maps to key t<i>/default/default")
		tenantSkew  = flag.String("tenant-skew", "uniform", "tenant draw distribution: uniform or zipf")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf exponent for -tenant-skew zipf")
		sweep       = flag.String("sweep", "", "comma-separated offered rates; runs an open-loop saturation sweep")
		collectives = flag.String("collectives", "bcast,allreduce,allgather,alltoall", "comma-separated collectives to mix")
		nodes       = flag.String("nodes", "2,4,8,16,32", "comma-separated node counts to mix")
		ppn         = flag.String("ppn", "1,8,16", "comma-separated ppn values to mix")
		msgExp      = flag.Int("max-msg-exp", 20, "message sizes are log-uniform powers of two in [1, 2^exp]")
		seed        = flag.Int64("seed", 1, "RNG seed (worker i uses seed+i)")
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
		bench       = flag.String("bench", "", "also print a benchguard-parseable Benchmark<name> line to stdout")
		benchPrefix = flag.String("bench-prefix", "", "prefix the -bench line's metric units (e.g. tcp_ emits tcp_throughput_qps)")
	)
	flag.Parse()

	if (*rulesPath == "") == (*tcp == "") {
		fatal(fmt.Errorf("exactly one of -rules or -tcp is required"))
	}
	// tenantKeys is the loadgen<->server tenant convention: mix tenant
	// index i is registry shard t<i>/default/default, matching
	// `acclaim-serve -tcp -tenant t<i>/default/default=...`.
	tenantKeys := make([]ruleserver.TenantKey, max(1, *tenants))
	for i := range tenantKeys {
		tenantKeys[i] = ruleserver.TenantKey{Cluster: fmt.Sprintf("t%d", i), JobClass: "default", MPIVer: "default"}
	}
	var target loadgen.Target
	if *rulesPath != "" {
		// In-process: every shard serves the same tuned file, so a
		// skewed tenant draw exercises shard dispatch without changing
		// rule coverage.
		reg := ruleserver.NewRegistry()
		for _, k := range tenantKeys {
			if err := reg.Load(k, *rulesPath); err != nil {
				fatal(err)
			}
		}
		rt, err := loadgen.NewRegistryTarget(reg, tenantKeys)
		if err != nil {
			fatal(err)
		}
		target = rt
	} else {
		tt, err := loadgen.NewTCPTarget(*tcp, tenantKeys, 2**workers)
		if err != nil {
			fatal(err)
		}
		defer tt.Close()
		target = tt
	}

	m, err := loadgen.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	mix, err := parseMix(*collectives, *nodes, *ppn, *msgExp)
	if err != nil {
		fatal(err)
	}
	mix.Tenants = *tenants
	mix.TenantSkew = *tenantSkew
	mix.ZipfS = *zipfS
	cfg := loadgen.Config{
		Target:   target,
		Mix:      mix,
		Mode:     m,
		Workers:  *workers,
		Requests: *requests,
		RateQPS:  *rate,
		Batch:    *batch,
		Seed:     *seed,
	}

	var rep *loadgen.Report
	if *sweep != "" {
		rates, err := parseFloats(*sweep)
		if err != nil {
			fatal(fmt.Errorf("bad -sweep: %v", err))
		}
		rep, err = loadgen.Sweep(cfg, rates)
		if err != nil {
			fatal(err)
		}
	} else {
		rep, err = loadgen.Run(cfg)
		if err != nil {
			fatal(err)
		}
	}

	if err := writeReport(rep, *out); err != nil {
		fatal(err)
	}
	if *bench != "" {
		if err := rep.WriteBenchPrefixed(os.Stdout, *bench, *benchPrefix); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr,
		"acclaim-loadgen: %s %s: %d requests, %d errors, %d misses, %.0f qps, p50 %.0fns p99 %.0fns p999 %.0fns\n",
		rep.Mode, rep.Target, rep.Requests, rep.Errors, rep.Misses,
		rep.ThroughputQPS, rep.Latency.P50Ns, rep.Latency.P99Ns, rep.Latency.P999Ns)
	for _, p := range rep.Sweep {
		fmt.Fprintf(os.Stderr, "acclaim-loadgen:   offered %9.0f qps -> achieved %9.0f qps, p99 %.0fns\n",
			p.OfferedQPS, p.AchievedQPS, p.P99Ns)
	}
}

// writeReport writes the JSON load report to path, or to stdout when
// path is empty. A failed close is an error like a failed write: it can
// be the first sign that the report never reached the disk.
func writeReport(rep *loadgen.Report, path string) error {
	if path == "" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseMix(collectives, nodes, ppn string, msgExp int) (loadgen.Mix, error) {
	m := loadgen.Mix{MsgExpMax: msgExp}
	for _, s := range strings.Split(collectives, ",") {
		c, err := coll.ParseCollective(strings.TrimSpace(s))
		if err != nil {
			return m, err
		}
		m.Collectives = append(m.Collectives, c)
	}
	var err error
	if m.Nodes, err = parseInts(nodes); err != nil {
		return m, fmt.Errorf("bad -nodes: %v", err)
	}
	if m.PPN, err = parseInts(ppn); err != nil {
		return m, fmt.Errorf("bad -ppn: %v", err)
	}
	return m, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acclaim-loadgen: %v\n", err)
	os.Exit(1)
}
