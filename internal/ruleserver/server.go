package ruleserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
)

// collCounters is one collective's hit/miss ledger, padded out to its
// own cache line so ranks hammering different collectives never
// false-share a counter word.
type collCounters struct {
	lookups obs.Counter // lookups routed to this collective
	misses  obs.Counter // of those, lookups with no matching table/rule
	_       [48]byte    // pad to 64 bytes
}

// nameSlot is the perColl index that aggregates LookupName traffic
// (string-keyed callers) and out-of-range enum values.
const nameSlot = coll.NumCollectives

// snapshot is one published generation of the index plus its
// observability counters — obs primitives since the registry
// migration, but still owned by the snapshot, not the server (and not
// the registry): a hot-swap starts a fresh ledger, and the stats of
// the generation that served a query are the stats that count it. The
// registry sees them through Register's read-on-demand func metrics,
// which follow the atomic snapshot pointer, so registry reads always
// reflect the current epoch without adding anything to the lock-free
// lookup path.
//
// Every lookup is counted and lands in the sharded HDR recorder, with
// no sampling, but callers time it two ways. An in-process
// Server.Lookup brackets each call with its own two clock reads; the
// bracket costs more than the flattened lookup itself (~2x on the dev
// host), and the benchguard record_headroom metric pins the recorder's
// own contribution at <10% over a clock-only baseline. The wire
// server times a whole batch frame once and records the frame's
// service time shared evenly over its lookups (RecordN), so the
// histogram count still equals the lookup count exactly.
//
//acclaim:frozen
type snapshot struct {
	idx      *Index
	version  uint64
	loadedAt time.Time

	// perColl[c] counts traffic per Collective enum value; the final
	// nameSlot aggregates LookupName traffic.
	perColl [coll.NumCollectives + 1]collCounters
	lat     *obs.HDRRecorder // one latency sample (ns) per lookup, sharded to spread write contention
}

func newSnapshot(idx *Index, version uint64) *snapshot {
	return &snapshot{idx: idx, version: version, loadedAt: time.Now(), lat: obs.NewHDRRecorder(0)}
}

// slot maps a Collective to its perColl index, folding out-of-range
// values into nameSlot.
func slot(c coll.Collective) int {
	if c < 0 || int(c) >= coll.NumCollectives {
		return nameSlot
	}
	return int(c)
}

// lookup answers one query on this generation and counts it in the
// per-collective ledger, without timing it: the caller owns the clock
// bracket and the latency sample.
//
//acclaim:zeroalloc
func (sn *snapshot) lookup(c coll.Collective, nodes, ppn, msg int) (string, bool) {
	pc := &sn.perColl[slot(c)]
	pc.lookups.Add(1)
	alg, ok := sn.idx.Lookup(c, nodes, ppn, msg)
	if !ok {
		pc.misses.Add(1)
	}
	return alg, ok
}

// totals sums the per-collective ledgers into snapshot-wide lookup and
// miss counts.
func (sn *snapshot) totals() (lookups, misses uint64) {
	for i := range sn.perColl {
		lookups += sn.perColl[i].lookups.Load()
		misses += sn.perColl[i].misses.Load()
	}
	return lookups, misses
}

// Server serves algorithm selections for collective calls. Readers are
// lock-free: a lookup is one atomic pointer load, one atomic counter
// add, and binary searches over the immutable snapshot, so any number
// of ranks can query concurrently while a writer installs a retuned
// rule file. The zero value is not usable; call NewFromFile, or get a
// shard from Registry.Ensure.
type Server struct {
	cur atomic.Pointer[snapshot]

	// swapMu serialises writers only. Readers never touch it.
	swapMu  sync.Mutex
	nextVer uint64
	swaps   atomic.Uint64
}

// newServer returns a server with no rules loaded; every lookup misses
// until the first Swap.
func newServer() *Server {
	s := &Server{}
	s.cur.Store(newSnapshot(&Index{}, 0))
	return s
}

// NewFromFile compiles and installs a rule file.
func NewFromFile(f *rules.File) (*Server, error) {
	s := newServer()
	if err := s.Swap(f); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads, validates, compiles, and installs a rule file from disk —
// the reload entry point after an ACCLAiM retuning round rewrites the
// file. On any error the currently installed snapshot keeps serving.
func (s *Server) Load(path string) error {
	f, err := rules.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ruleserver: %w", err)
	}
	return s.Swap(f)
}

// Swap compiles the file and atomically publishes it. In-flight lookups
// finish on the snapshot they loaded; new lookups see the new one. The
// swap fails — leaving the old snapshot serving — if the file does not
// validate.
func (s *Server) Swap(f *rules.File) error {
	idx, err := Compile(f)
	if err != nil {
		return err
	}
	s.swapMu.Lock()
	s.nextVer++
	s.cur.Store(newSnapshot(idx, s.nextVer))
	s.swapMu.Unlock()
	s.swaps.Add(1)
	return nil
}

// Lookup implements coll.AlgSource: the collective-call hot path.
// It performs no allocation and takes no lock — TestLookupZeroAlloc
// pins the property at runtime, acclaim-lint's zeroalloc analyzer at
// review time. Every call is timed on its own by two clock reads around
// the snapshot lookup and recorded into the snapshot's HDR recorder,
// so the quantiles Stats reports cover the full population, not a
// sample.
//
//acclaim:zeroalloc
func (s *Server) Lookup(c coll.Collective, nodes, ppn, msg int) (string, bool) {
	sn := s.cur.Load()
	t0 := obs.NowNs()
	alg, ok := sn.lookup(c, nodes, ppn, msg)
	sn.lat.Record(t0, obs.NowNs()-t0)
	return alg, ok
}

// LookupName resolves by table name (for rule tables that are not named
// after a known collective, or callers holding only strings). Traffic
// lands in the aggregate nameSlot ledger; latency is recorded exactly
// like Lookup.
//
//acclaim:zeroalloc
func (s *Server) LookupName(collective string, nodes, ppn, msg int) (string, bool) {
	sn := s.cur.Load()
	pc := &sn.perColl[nameSlot]
	pc.lookups.Add(1)
	t0 := obs.NowNs()
	alg, ok := sn.idx.LookupName(collective, nodes, ppn, msg)
	sn.lat.Record(t0, obs.NowNs()-t0)
	if !ok {
		pc.misses.Add(1)
	}
	return alg, ok
}

// Index returns the currently published index (for bulk operations that
// want to pin one generation across many lookups).
func (s *Server) Index() *Index { return s.cur.Load().idx }

// CollStats is one collective's share of the serving snapshot's
// traffic.
type CollStats struct {
	Collective string // collective name, or "by_name" for LookupName traffic
	Lookups    uint64 // lookups routed to this collective
	Misses     uint64 // of those, lookups with no matching rule
}

// Stats is a point-in-time view of the serving snapshot.
type Stats struct {
	Version  uint64    // snapshot generation (1 = first Swap)
	LoadedAt time.Time // when this generation was published
	Tables   int       // rule tables in the snapshot
	Rules    int       // total message-level rules
	Hits     uint64    // lookups answered by a rule
	Misses   uint64    // lookups with no matching table/rule
	Swaps    uint64    // total successful swaps on the server

	// Lookup-latency quantiles over every lookup this snapshot served
	// (not a sample), exact to within the HDR bucket resolution
	// (~3%). In-process lookups are timed one by one; a wire lookup
	// contributes its batch frame's service time divided by the
	// frame's lookup count. Zero until the first lookup.
	P50, P99, P999 time.Duration

	// PerCollective lists the collectives that saw traffic, in enum
	// order, with LookupName traffic aggregated last under "by_name".
	PerCollective []CollStats
}

// Stats reads the current snapshot's counters. Since the obs
// migration this is a thin view over the same obs state Register
// exposes to a metrics registry.
func (s *Server) Stats() Stats {
	sn := s.cur.Load()
	lat := sn.lat.Snapshot()
	st := Stats{
		Version:  sn.version,
		LoadedAt: sn.loadedAt,
		Tables:   len(sn.idx.byName),
		Rules:    sn.idx.rules,
		Swaps:    s.swaps.Load(),
		P50:      time.Duration(lat.P50),
		P99:      time.Duration(lat.P99),
		P999:     time.Duration(lat.P999),
	}
	for i := range sn.perColl {
		lookups := sn.perColl[i].lookups.Load()
		misses := sn.perColl[i].misses.Load()
		if lookups == 0 && misses == 0 {
			continue
		}
		name := "by_name"
		if i < coll.NumCollectives {
			name = coll.Collective(i).String()
		}
		st.PerCollective = append(st.PerCollective, CollStats{Collective: name, Lookups: lookups, Misses: misses})
		st.Hits += lookups - misses
		st.Misses += misses
	}
	return st
}

// Register exposes the server's counters on a metrics registry as
// read-on-demand metrics. Every read follows the atomic snapshot
// pointer, so the values always describe the currently serving epoch
// (they reset on Swap, exactly like Stats) and nothing is added to the
// lock-free lookup path. The server-lifetime swap counter is the one
// cumulative metric.
func (s *Server) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("ruleserver.lookups", func() float64 {
		lookups, _ := s.cur.Load().totals()
		return float64(lookups)
	})
	reg.Func("ruleserver.hits", func() float64 {
		lookups, misses := s.cur.Load().totals()
		return float64(lookups - misses)
	})
	reg.Func("ruleserver.misses", func() float64 {
		_, misses := s.cur.Load().totals()
		return float64(misses)
	})
	reg.Func("ruleserver.snapshot_version", func() float64 { return float64(s.cur.Load().version) })
	reg.Func("ruleserver.tables", func() float64 { return float64(len(s.cur.Load().idx.byName)) })
	reg.Func("ruleserver.rules", func() float64 { return float64(s.cur.Load().idx.rules) })
	reg.Func("ruleserver.swaps_total", func() float64 { return float64(s.swaps.Load()) })
	reg.Describe("ruleserver.lookup_latency_ns", "lookup latency, one sample per lookup the serving snapshot answered: in-process lookups timed one by one, wire lookups as their frame's service time shared evenly over its lookups")
	reg.HDRFunc("ruleserver.lookup_latency_ns", func() *obs.HDRRecorder { return s.cur.Load().lat })
	for i := 0; i <= coll.NumCollectives; i++ {
		slot := i
		name := "by_name"
		if i < coll.NumCollectives {
			name = coll.Collective(i).String()
		}
		//acclaim:allow metricname per-collective counter ruleserver.<collective>.lookups; segments are fixed lower-case enum names (or by_name)
		reg.Func("ruleserver."+name+".lookups", func() float64 {
			return float64(s.cur.Load().perColl[slot].lookups.Load())
		})
		//acclaim:allow metricname per-collective counter ruleserver.<collective>.misses; segments are fixed lower-case enum names (or by_name)
		reg.Func("ruleserver."+name+".misses", func() float64 {
			return float64(s.cur.Load().perColl[slot].misses.Load())
		})
	}
}
