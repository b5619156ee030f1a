// Command acclaim-serve answers algorithm-selection queries from a
// tuned rule file through the lock-free serving engine
// (internal/ruleserver). It is the deployment half of the ACCLAiM
// pipeline: cmd/acclaim produces a selection file, acclaim-serve loads
// it and resolves (collective, nodes, ppn, message-size) queries to
// algorithm names at interconnect-friendly latency.
//
// One-shot queries:
//
//	acclaim-serve -rules tuned.json -query bcast:16:8:65536 -query allreduce:4:2:1024
//
// Streaming mode (one "<collective> <nodes> <ppn> <msg>" query per
// stdin line, one algorithm per stdout line):
//
//	printf 'bcast 16 8 65536\n' | acclaim-serve -rules tuned.json
//
// With -watch, the rule file's modification time is polled and the
// serving snapshot is hot-swapped whenever the file changes; in-flight
// lookups are never blocked. -stats prints serving counters to stderr
// on exit.
//
// With -tcp, the compact binary selection protocol is served instead
// of the stdin stream: length-prefixed frames, interned tenant and
// collective ids negotiated per connection, batched lookups — the
// transport cmd/acclaim-loadgen's -tcp mode drives. Every rule file is
// one tenant of a ruleserver.Registry: repeatable -tenant flags each
// load one file into a shard keyed cluster/jobclass/mpiver, and
// -rules P is short for -tenant default/default/default=P. A key given
// twice is an error.
//
//	acclaim-serve -tcp :9090 \
//	    -tenant frontier/batch/mpich-4.2=frontier.json \
//	    -tenant summit/debug/ompi-5.0=summit.json
//
// One-shot queries, the stdin stream and -stats address one tenant:
// the default tenant when -rules is given, else the first -tenant. Shards
// hot-reload independently under -watch: each tenant's file is polled
// and swapped on its own, never perturbing another tenant's served
// snapshot or counters.
//
// With -debug-addr, an HTTP observability endpoint is served for the
// life of the process (most useful with streaming or -tcp mode):
// /metrics answers Prometheus text by default and expvar-style JSON
// with ?format=json (fleet totals plus each tenant's per-epoch
// hit/miss/latency series, read through the lock-free snapshot
// pointers, and the wire transport counters), /debug/vars is the standard
// expvar page with the registry published under "acclaim", and
// /debug/pprof/ exposes the usual profiles.
package main

import (
	"bufio"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
	"acclaim/internal/ruleserver"
)

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ",") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

// tenantFlag is one parsed -tenant cluster/jobclass/mpiver=rulefile.
type tenantFlag struct {
	key  ruleserver.TenantKey
	path string
}

type tenantList []tenantFlag

func (t *tenantList) String() string {
	parts := make([]string, len(*t))
	for i, f := range *t {
		parts[i] = f.key.String() + "=" + f.path
	}
	return strings.Join(parts, ",")
}

func (t *tenantList) Set(s string) error {
	ks, path, ok := strings.Cut(s, "=")
	if !ok || path == "" {
		return fmt.Errorf("bad -tenant %q: want cluster/jobclass/mpiver=rulefile", s)
	}
	key, err := ruleserver.ParseTenantKey(ks)
	if err != nil {
		return err
	}
	*t = append(*t, tenantFlag{key: key, path: path})
	return nil
}

func main() {
	var (
		rulesPath = flag.String("rules", "", "tuned selection rule file (JSON; loads the default tenant)")
		queries   queryList
		tenants   tenantList
		stats     = flag.Bool("stats", false, "print serving counters to stderr on exit")
		watch     = flag.Duration("watch", 0, "poll rule files at this interval and hot-reload on change (server modes)")
		tcpAddr   = flag.String("tcp", "", "serve the compact binary selection protocol on this address (replaces stdin streaming)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics (Prometheus text / expvar JSON), /debug/vars, and /debug/pprof on this address")
	)
	flag.Var(&queries, "query", "one-shot query collective:nodes:ppn:msgbytes (repeatable)")
	flag.Var(&tenants, "tenant", "load one registry shard as cluster/jobclass/mpiver=rulefile (repeatable; -tcp serving)")
	flag.Parse()

	if *rulesPath == "" && len(tenants) == 0 {
		fmt.Fprintln(os.Stderr, "acclaim-serve: -rules or at least one -tenant is required")
		flag.Usage()
		os.Exit(2)
	}
	tenants, err := withRules(*rulesPath, tenants)
	if err != nil {
		fatal(err)
	}

	reg := ruleserver.NewRegistry()
	for _, t := range tenants {
		if err := reg.Load(t.key, t.path); err != nil {
			fatal(fmt.Errorf("tenant %s: %v", t.key, err))
		}
	}
	// The one-shot and streaming modes answer from the first tenant:
	// the default tenant when -rules is given, else the first -tenant.
	key := tenants[0].key

	ws := ruleserver.NewWireServer(reg)
	if *debugAddr != "" {
		//acclaim:goroutine-owner lives for the whole process by design; a failed listen exits via fatal
		go serveDebug(reg, ws, *debugAddr)
	}

	// watchDone stops the rule-file pollers: closed when streaming
	// input ends (so the final stats read does not race a hot swap);
	// never closed in -tcp mode, where serving — and polling — lasts
	// until the process dies.
	watchDone := make(chan struct{})
	startWatchers := func() {
		if *watch <= 0 {
			return
		}
		for _, t := range tenants {
			//acclaim:goroutine-owner per-tenant rule-file poller; returns when watchDone closes
			go watchFile(t.key.String(), t.path, *watch, watchDone, func() error {
				if err := reg.Load(t.key, t.path); err != nil {
					return err
				}
				shard, _ := reg.Tenant(t.key)
				fmt.Fprintf(os.Stderr, "acclaim-serve: hot-swapped tenant %s to v%d\n", t.key, shard.Stats().Version)
				return nil
			})
		}
	}

	if len(queries) > 0 {
		for _, q := range queries {
			parts := strings.Split(q, ":")
			if len(parts) != 4 {
				fatal(fmt.Errorf("bad -query %q: want collective:nodes:ppn:msgbytes", q))
			}
			alg, err := answer(reg, key, parts[0], parts[1], parts[2], parts[3])
			if err != nil {
				fatal(err)
			}
			fmt.Println(alg)
		}
	} else if *tcpAddr != "" {
		startWatchers()
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "acclaim-serve: serving binary protocol on %s (%d tenants)\n",
			ln.Addr(), reg.Len())
		fatal(ws.Serve(ln))
	} else {
		startWatchers()
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			f := strings.Fields(line)
			if len(f) != 4 {
				fatal(fmt.Errorf("bad query %q: want <collective> <nodes> <ppn> <msgbytes>", line))
			}
			alg, err := answer(reg, key, f[0], f[1], f[2], f[3])
			if err != nil {
				fatal(err)
			}
			fmt.Println(alg)
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
		close(watchDone)
	}

	if *stats {
		srv, _ := reg.Tenant(key)
		printStats(os.Stderr, srv.Stats())
	}
}

// withRules returns the tenants to load: -rules, when given, first as
// the default tenant, then every -tenant in flag order. A tenant key
// given twice is an error naming it, since both files would otherwise
// load into one shard and the later would silently replace the earlier.
func withRules(rulesPath string, tenants tenantList) (tenantList, error) {
	if rulesPath != "" {
		tenants = append(tenantList{{key: ruleserver.DefaultTenant, path: rulesPath}}, tenants...)
	}
	seen := make(map[ruleserver.TenantKey]bool, len(tenants))
	for _, t := range tenants {
		if seen[t.key] {
			if t.key == ruleserver.DefaultTenant && rulesPath != "" {
				return nil, fmt.Errorf("tenant %s given twice: -rules P is -tenant %s=P", t.key, t.key)
			}
			return nil, fmt.Errorf("tenant %s given twice", t.key)
		}
		seen[t.key] = true
	}
	return tenants, nil
}

// printStats renders the end-of-run serving summary: headline
// counters, the lookup-latency quantiles recorded over every lookup
// (exact to within the HDR bucket resolution), and a per-collective
// hit-rate table.
func printStats(w io.Writer, st ruleserver.Stats) {
	fmt.Fprintf(w,
		"acclaim-serve: snapshot v%d, %d tables, %d rules, %d hits, %d misses, %d swaps\n",
		st.Version, st.Tables, st.Rules, st.Hits, st.Misses, st.Swaps)
	fmt.Fprintf(w, "acclaim-serve: lookup latency p50 %v, p99 %v, p999 %v\n", st.P50, st.P99, st.P999)
	for _, cs := range st.PerCollective {
		hitRate := 100.0
		if cs.Lookups > 0 {
			hitRate = 100 * float64(cs.Lookups-cs.Misses) / float64(cs.Lookups)
		}
		fmt.Fprintf(w, "acclaim-serve:   %-16s %9d lookups %9d misses  %5.1f%% hit\n",
			cs.Collective, cs.Lookups, cs.Misses, hitRate)
	}
}

// answer resolves one query against key's current snapshot. A
// collective the rule file does not cover is an error, like a malformed
// field: both callers exit 1 on it, so a one-shot -query proves that a
// tuned file covers its collective.
func answer(reg *ruleserver.Registry, key ruleserver.TenantKey, cs, ns, ps, ms string) (string, error) {
	c, err := coll.ParseCollective(cs)
	if err != nil {
		return "", err
	}
	nodes, err := strconv.Atoi(ns)
	if err != nil {
		return "", fmt.Errorf("bad node count %q: %v", ns, err)
	}
	ppn, err := strconv.Atoi(ps)
	if err != nil {
		return "", fmt.Errorf("bad ppn %q: %v", ps, err)
	}
	msg, err := strconv.Atoi(ms)
	if err != nil {
		return "", fmt.Errorf("bad message size %q: %v", ms, err)
	}
	alg, ok := reg.Lookup(key, c, nodes, ppn, msg)
	if !ok {
		return "", fmt.Errorf("no rule for collective %v (file does not cover it)", c)
	}
	return alg, nil
}

// serveDebug runs the observability endpoint: the registry's fleet
// aggregates and every tenant's labeled series, and the wire transport
// counters on a fresh metrics registry (all epoch-scoped, read
// lock-free through the snapshot pointers), plus expvar and pprof. It
// never returns; a failed listen is fatal because the operator asked
// for the endpoint explicitly.
func serveDebug(rreg *ruleserver.Registry, ws *ruleserver.WireServer, addr string) {
	reg := obs.NewRegistry()
	rreg.Register(reg)
	ws.Register(reg)
	reg.Publish("acclaim")

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fatal(http.ListenAndServe(addr, mux))
}

// watchFile polls one rule file's mtime and runs load when it
// changes, until done is closed. A file that momentarily fails to load
// (mid-rewrite, or invalid) keeps the previous snapshot serving; the
// error is logged. Each tenant's file gets its own poller, so one
// shard's reload never delays — or perturbs — another's. (This used to
// loop over time.Tick, which can never be stopped and leaked its
// ticker past the end of streaming input — the goroutinelife analyzer
// caught it.)
func watchFile(label, path string, every time.Duration, done <-chan struct{}, load func() error) {
	var last time.Time
	if fi, err := os.Stat(path); err == nil {
		last = fi.ModTime()
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		fi, err := os.Stat(path)
		if err != nil || !fi.ModTime().After(last) {
			continue
		}
		last = fi.ModTime()
		if err := load(); err != nil {
			fmt.Fprintf(os.Stderr, "acclaim-serve: %s: reload failed, keeping current snapshot: %v\n",
				label, err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acclaim-serve: %v\n", err)
	os.Exit(1)
}
