package ruleserver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
)

// TenantKey identifies one rule-serving tenant: a (cluster, job class,
// MPI version) triple. Every distinct deployment surface a tuning
// fleet serves — a machine, a queue partition, an MPI build — gets its
// own independently swappable rule table, which is how one registry
// process serves many jobs without their retuning cycles interfering.
type TenantKey struct {
	Cluster  string
	JobClass string
	MPIVer   string
}

// DefaultTenant is the key single-tenant deployments implicitly use
// (acclaim-serve -rules with no -tenant flags).
var DefaultTenant = TenantKey{Cluster: "default", JobClass: "default", MPIVer: "default"}

// String renders the key as "cluster/jobclass/mpiver", the wire and
// CLI spelling ParseTenantKey accepts.
func (k TenantKey) String() string {
	return k.Cluster + "/" + k.JobClass + "/" + k.MPIVer
}

// ParseTenantKey parses "cluster/jobclass/mpiver". All three segments
// must be non-empty and contain no further slashes.
func ParseTenantKey(s string) (TenantKey, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return TenantKey{}, fmt.Errorf("ruleserver: bad tenant key %q (want cluster/jobclass/mpiver)", s)
	}
	return TenantKey{Cluster: parts[0], JobClass: parts[1], MPIVer: parts[2]}, nil
}

// shardTable is one published generation of the tenant-to-shard map.
// It is immutable after construction: adding a tenant builds a new
// table and publishes it atomically, so Tenant never takes a lock. The
// *Server shard pointers themselves are stable for the life of the
// registry — a rule swap on one tenant goes through its shard's own
// atomic snapshot and never touches this table, which is what makes
// shard hot-reloads independent per tenant.
//
//acclaim:frozen
type shardTable struct {
	keys   []TenantKey // sorted by String(), for deterministic iteration
	shards map[TenantKey]*Server
}

// newShardTable builds the successor table: old's entries plus (key,
// srv).
func newShardTable(old *shardTable, key TenantKey, srv *Server) *shardTable {
	t := &shardTable{shards: make(map[TenantKey]*Server, len(old.shards)+1)}
	for k, s := range old.shards {
		t.shards[k] = s
	}
	t.shards[key] = srv
	t.keys = make([]TenantKey, 0, len(t.shards))
	for k := range t.shards {
		t.keys = append(t.keys, k)
	}
	sort.Slice(t.keys, func(i, j int) bool { return t.keys[i].String() < t.keys[j].String() })
	return t
}

// Registry is a sharded multi-tenant rule store: one Server shard per
// (cluster, job class, MPI version), each behind its own atomic
// snapshot with its own per-epoch counters. Lookups resolve the shard
// through an atomically published table copy — no lock anywhere on the
// read path — and shard hot-reloads are fully independent: swapping
// one tenant's rules never perturbs another tenant's served epoch,
// counters, or latency ledger.
type Registry struct {
	tab atomic.Pointer[shardTable]

	// addMu serialises tenant additions only; reads never touch it.
	addMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.tab.Store(&shardTable{shards: map[TenantKey]*Server{}})
	return r
}

// Tenant returns the shard serving key, or (nil, false) if the tenant
// has not been created. Lock-free: one atomic load plus a map read on
// the immutable table.
func (r *Registry) Tenant(key TenantKey) (*Server, bool) {
	srv, ok := r.tab.Load().shards[key]
	return srv, ok
}

// Ensure returns key's shard, creating an empty one (every lookup
// misses until the first Swap) if the tenant is new. The returned
// *Server is stable: callers may cache it across rule swaps.
func (r *Registry) Ensure(key TenantKey) *Server {
	if srv, ok := r.Tenant(key); ok {
		return srv
	}
	r.addMu.Lock()
	defer r.addMu.Unlock()
	old := r.tab.Load()
	if srv, ok := old.shards[key]; ok {
		return srv
	}
	srv := newServer()
	r.tab.Store(newShardTable(old, key, srv))
	return srv
}

// Swap compiles and installs a rule file on key's shard, creating the
// tenant if needed. Only that shard's snapshot changes.
func (r *Registry) Swap(key TenantKey, f *rules.File) error {
	return r.Ensure(key).Swap(f)
}

// Load reads, validates, compiles, and installs a rule file from disk
// on key's shard. On any error the shard's current snapshot keeps
// serving.
func (r *Registry) Load(key TenantKey, path string) error {
	return r.Ensure(key).Load(path)
}

// Lookup resolves one query against key's shard. An unknown tenant is
// a miss, not an error — the same deployment-visible condition as an
// uncovered collective.
func (r *Registry) Lookup(key TenantKey, c coll.Collective, nodes, ppn, msg int) (string, bool) {
	srv, ok := r.Tenant(key)
	if !ok {
		return "", false
	}
	return srv.Lookup(c, nodes, ppn, msg)
}

// Tenants returns the current tenant keys in sorted order (a copy; the
// registry's own table stays immutable).
func (r *Registry) Tenants() []TenantKey {
	keys := r.tab.Load().keys
	out := make([]TenantKey, len(keys))
	copy(out, keys)
	return out
}

// Len returns the number of tenants.
func (r *Registry) Len() int { return len(r.tab.Load().keys) }

// TenantStats is one tenant's slice of a RegistryStats view.
type TenantStats struct {
	Key   TenantKey
	Stats Stats
}

// RegistryStats is a point-in-time combined view across every shard:
// per-tenant epoch stats plus fleet totals.
type RegistryStats struct {
	Tenants []TenantStats // sorted by tenant key
	Lookups uint64        // total lookups across shards (hits + misses)
	Hits    uint64
	Misses  uint64
	Swaps   uint64 // total successful swaps across shards
}

// Stats reads every shard's current-epoch counters into one combined
// view. Each shard is read through its own snapshot pointer, so the
// view is per-shard consistent (a concurrent swap on one tenant only
// affects that tenant's row).
func (r *Registry) Stats() RegistryStats {
	tab := r.tab.Load()
	var out RegistryStats
	for _, k := range tab.keys {
		st := tab.shards[k].Stats()
		out.Tenants = append(out.Tenants, TenantStats{Key: k, Stats: st})
		out.Lookups += st.Hits + st.Misses
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Swaps += st.Swaps
	}
	return out
}

// Register exposes fleet-wide aggregates plus per-tenant labeled
// counters on a metrics registry. Aggregates follow the live shard
// table, so tenants added later are included; the per-tenant series
// are registered for the tenants present at call time (labels are
// sanitized through obs.MetricLabel). Per-tenant reads follow each
// shard's atomic snapshot pointer, adding nothing to the lookup path.
func (r *Registry) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("ruleserver.registry.tenants", func() float64 { return float64(r.Len()) })
	reg.Func("ruleserver.registry.lookups", func() float64 { return float64(r.Stats().Lookups) })
	reg.Func("ruleserver.registry.misses", func() float64 { return float64(r.Stats().Misses) })
	reg.Func("ruleserver.registry.swaps_total", func() float64 { return float64(r.Stats().Swaps) })
	for _, k := range r.Tenants() {
		srv, _ := r.Tenant(k)
		label := obs.MetricLabel(k.String())
		//acclaim:allow metricname per-tenant counter ruleserver.tenant.<label>.lookups; label is the sanitized tenant key, fixed at registration
		reg.Func("ruleserver.tenant."+label+".lookups", func() float64 {
			st := srv.Stats()
			return float64(st.Hits + st.Misses)
		})
		//acclaim:allow metricname per-tenant counter ruleserver.tenant.<label>.misses; label is the sanitized tenant key, fixed at registration
		reg.Func("ruleserver.tenant."+label+".misses", func() float64 {
			return float64(srv.Stats().Misses)
		})
		//acclaim:allow metricname per-tenant gauge ruleserver.tenant.<label>.snapshot_version; label is the sanitized tenant key, fixed at registration
		reg.Func("ruleserver.tenant."+label+".snapshot_version", func() float64 {
			return float64(srv.Stats().Version)
		})
	}
}
