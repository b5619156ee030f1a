package ruleserver

import (
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

// straySlot is the perColl index for out-of-range Collective values:
// such a lookup misses without indexing the table array, and is
// counted here so the snapshot totals stay exact. It is listed under
// no collective's name.
const straySlot = coll.NumCollectives

// snapshot is one published generation of the index plus its
// observability counters — obs primitives since the registry
// migration, but still owned by the snapshot, not the server (and not
// the registry): a hot-swap starts a fresh ledger, and the stats of
// the generation that served a query are the stats that count it. The
// registry sees them through Registry.Register's read-on-demand func metrics,
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
	// straySlot counts out-of-range values.
	perColl [coll.NumCollectives + 1]collCounters
	lat     *obs.HDRRecorder // one latency sample (ns) per lookup, sharded to spread write contention
}

func newSnapshot(idx *Index, version uint64) *snapshot {
	return &snapshot{idx: idx, version: version, loadedAt: time.Now(), lat: obs.NewHDRRecorder(0)}
}

// slot maps a Collective to its perColl index, folding out-of-range
// values into straySlot.
func slot(c coll.Collective) int {
	if c < 0 || int(c) >= coll.NumCollectives {
		return straySlot
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
// rule file. A Server is one Registry shard: get it from
// Registry.Ensure or Registry.Tenant; the zero value is not usable.
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

// Index returns the currently published index (for bulk operations that
// want to pin one generation across many lookups).
func (s *Server) Index() *Index { return s.cur.Load().idx }

// CollStats is one collective's share of the serving snapshot's
// traffic.
type CollStats struct {
	Collective string // collective name
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
	// order. Lookups of an out-of-range Collective value count in Misses
	// but under no collective.
	PerCollective []CollStats
}

// Stats reads the current snapshot's counters: the same obs state
// Registry.Register exposes to a metrics registry.
func (s *Server) Stats() Stats {
	sn := s.cur.Load()
	lat := sn.lat.Snapshot()
	lookups, misses := sn.totals()
	st := Stats{
		Version:  sn.version,
		LoadedAt: sn.loadedAt,
		Tables:   sn.idx.numTables(),
		Rules:    sn.idx.rules,
		Hits:     lookups - misses,
		Misses:   misses,
		Swaps:    s.swaps.Load(),
		P50:      time.Duration(lat.P50),
		P99:      time.Duration(lat.P99),
		P999:     time.Duration(lat.P999),
	}
	for i := range coll.NumCollectives {
		pc := &sn.perColl[i]
		if n := pc.lookups.Load(); n > 0 {
			st.PerCollective = append(st.PerCollective, CollStats{Collective: coll.Collective(i).String(), Lookups: n, Misses: pc.misses.Load()})
		}
	}
	return st
}

// register exposes the shard's counters on a metrics registry, each
// name under prefix, as read-on-demand metrics. Every read follows the
// atomic snapshot pointer, so the values always describe the currently
// serving epoch (they reset on Swap, exactly like Stats) and nothing is
// added to the lock-free lookup path. The shard-lifetime swap counter
// is the one cumulative metric.
func (s *Server) register(reg *obs.Registry, prefix string) {
	totals := func() (lookups, misses uint64) { return s.cur.Load().totals() }
	for _, m := range []struct {
		name string
		read func() float64
	}{
		{"lookups", func() float64 { n, _ := totals(); return float64(n) }},
		{"hits", func() float64 { n, miss := totals(); return float64(n - miss) }},
		{"misses", func() float64 { _, miss := totals(); return float64(miss) }},
		{"snapshot_version", func() float64 { return float64(s.cur.Load().version) }},
		{"tables", func() float64 { return float64(s.cur.Load().idx.numTables()) }},
		{"rules", func() float64 { return float64(s.cur.Load().idx.rules) }},
		{"swaps_total", func() float64 { return float64(s.swaps.Load()) }},
	} {
		//acclaim:allow metricname <prefix><name>: prefix is ruleserver.tenant.<sanitized tenant key>., names are the fixed lower_snake literals above
		reg.Func(prefix+m.name, m.read)
	}
	reg.Describe(prefix+"lookup_latency_ns", "lookup latency, one sample per lookup the serving snapshot answered: in-process lookups timed one by one, wire lookups as their frame's service time shared evenly over its lookups")
	//acclaim:allow metricname <prefix>lookup_latency_ns: prefix is ruleserver.tenant.<sanitized tenant key>.
	reg.HDRFunc(prefix+"lookup_latency_ns", func() *obs.HDRRecorder { return s.cur.Load().lat })
	for _, c := range coll.Collectives() {
		pc := int(c)
		//acclaim:allow metricname per-collective counter <prefix><collective>.lookups; the collective segment is a fixed lower-case enum name
		reg.Func(prefix+c.String()+".lookups", func() float64 {
			return float64(s.cur.Load().perColl[pc].lookups.Load())
		})
		//acclaim:allow metricname per-collective counter <prefix><collective>.misses; the collective segment is a fixed lower-case enum name
		reg.Func(prefix+c.String()+".misses", func() float64 {
			return float64(s.cur.Load().perColl[pc].misses.Load())
		})
	}
}
