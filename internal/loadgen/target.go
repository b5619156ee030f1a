package loadgen

import (
	"fmt"

	"acclaim/internal/coll"
	"acclaim/internal/ruleserver"
)

// Query is one algorithm-selection request fired at a target. Tenant
// is an index into the target's tenant list (always 0 for a
// single-tenant mix).
type Query struct {
	Tenant int
	Coll   coll.Collective
	Nodes  int
	PPN    int
	Msg    int
}

// Result is one answered query: ok reports rule coverage (a miss is a
// valid answer, not an error).
type Result struct {
	Alg string
	OK  bool
}

// Target is the system under load. Select resolves one query: ok
// reports whether a rule covered it (a miss is a valid answer, not an
// error); err reports transport or server failure, and err'd requests
// are excluded from the latency distribution.
type Target interface {
	Select(q Query) (alg string, ok bool, err error)
	// Name identifies the target in reports ("inproc", or tcp://addr).
	Name() string
}

// BatchTarget is a Target that can resolve N queries in one transport
// round trip. SelectBatch fills res[:len(qs)] in query order; an error
// fails the whole batch (all its queries count as errors).
type BatchTarget interface {
	Target
	SelectBatch(qs []Query, res []Result) error
}

// RegistryTarget drives an in-process registry with one or more
// tenants: each query's Tenant index resolves to one of the listed
// shards. The shard pointers are resolved once at construction
// (Registry shards are stable across rule swaps), so the per-query cost
// over a bare Server.Lookup is one slice index. It measures the pure
// serving-path cost with no transport.
type RegistryTarget struct {
	shards []*ruleserver.Server
}

// NewRegistryTarget builds a registry target over the given tenants,
// creating any that do not exist yet (their lookups miss until the
// first Swap).
func NewRegistryTarget(reg *ruleserver.Registry, tenants []ruleserver.TenantKey) (*RegistryTarget, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("loadgen: RegistryTarget needs at least one tenant")
	}
	t := &RegistryTarget{shards: make([]*ruleserver.Server, len(tenants))}
	for i, k := range tenants {
		t.shards[i] = reg.Ensure(k)
	}
	return t, nil
}

func (t *RegistryTarget) Select(q Query) (string, bool, error) {
	if q.Tenant < 0 || q.Tenant >= len(t.shards) {
		return "", false, fmt.Errorf("loadgen: tenant index %d out of range [0,%d)", q.Tenant, len(t.shards))
	}
	alg, ok := t.shards[q.Tenant].Lookup(q.Coll, q.Nodes, q.PPN, q.Msg)
	return alg, ok, nil
}

func (t *RegistryTarget) Name() string { return "inproc" }
