package loadgen

import (
	"fmt"
	"net"
	"strings"

	"acclaim/internal/ruleserver"
)

// tcpConn bundles one wire client with its per-connection scratch
// slices, so batch encode/decode reuses memory across batches on the
// same connection.
type tcpConn struct {
	c  *ruleserver.WireClient
	qs []ruleserver.WireQuery
	rs []ruleserver.WireResult
}

// TCPTarget drives an out-of-process server over the compact binary
// protocol that acclaim-serve -tcp exposes. Connections are pooled in
// a lock-free channel free-list: each worker checks one out per call
// (dialing on a dry pool), uses it exclusively, and returns it — so a
// steady-state run holds one persistent connection per worker and a
// batch costs one Write plus one pipelined read. A transport error
// discards the connection instead of re-pooling it.
type TCPTarget struct {
	addr    string
	tenants []ruleserver.TenantKey
	pool    chan *tcpConn

	// dial is the connection factory; tests may substitute one that
	// returns an in-process pipe.
	dial func() (*ruleserver.WireClient, error)
}

// NewTCPTarget builds a pooled binary-protocol target. maxConns bounds
// the pool (<=0 means 64); tenants is the tenant universe Query.Tenant
// indexes into (at least one — use ruleserver.DefaultTenant against a
// single-tenant server).
func NewTCPTarget(addr string, tenants []ruleserver.TenantKey, maxConns int) (*TCPTarget, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("loadgen: TCPTarget needs at least one tenant")
	}
	if maxConns <= 0 {
		maxConns = 64
	}
	t := &TCPTarget{
		addr:    addr,
		tenants: append([]ruleserver.TenantKey(nil), tenants...),
		pool:    make(chan *tcpConn, maxConns),
	}
	t.dial = func() (*ruleserver.WireClient, error) {
		return ruleserver.DialWire(addr, t.tenants)
	}
	return t, nil
}

// NewTCPTargetConn builds a target whose connections come from dialFn
// — how tests drive the protocol over net.Pipe without a listener.
func NewTCPTargetConn(name string, tenants []ruleserver.TenantKey, maxConns int, dialFn func() (net.Conn, error)) (*TCPTarget, error) {
	t, err := NewTCPTarget(name, tenants, maxConns)
	if err != nil {
		return nil, err
	}
	t.dial = func() (*ruleserver.WireClient, error) {
		nc, err := dialFn()
		if err != nil {
			return nil, err
		}
		c, err := ruleserver.NewWireClient(nc, t.tenants)
		if err != nil {
			nc.Close()
			return nil, err
		}
		return c, nil
	}
	return t, nil
}

// get checks a connection out of the pool, dialing if it is dry.
func (t *TCPTarget) get() (*tcpConn, error) {
	select {
	case c := <-t.pool:
		return c, nil
	default:
	}
	wc, err := t.dial()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: wc}, nil
}

// put returns a healthy connection to the pool, closing it if the
// pool is full.
func (t *TCPTarget) put(c *tcpConn) {
	select {
	case t.pool <- c:
	default:
		c.c.Close()
	}
}

// Select resolves one query (a batch of one round trip).
func (t *TCPTarget) Select(q Query) (string, bool, error) {
	c, err := t.get()
	if err != nil {
		return "", false, err
	}
	alg, ok, err := c.c.Lookup(ruleserver.WireQuery{
		Tenant: q.Tenant, Coll: q.Coll, Nodes: q.Nodes, PPN: q.PPN, Msg: q.Msg,
	})
	if err != nil {
		c.c.Close()
		return "", false, err
	}
	t.put(c)
	return alg, ok, nil
}

// SelectBatch resolves len(qs) queries in one request frame.
func (t *TCPTarget) SelectBatch(qs []Query, res []Result) error {
	if len(res) < len(qs) {
		return fmt.Errorf("loadgen: result slice shorter than query slice")
	}
	c, err := t.get()
	if err != nil {
		return err
	}
	if cap(c.qs) < len(qs) {
		c.qs = make([]ruleserver.WireQuery, len(qs))
		c.rs = make([]ruleserver.WireResult, len(qs))
	}
	c.qs, c.rs = c.qs[:len(qs)], c.rs[:len(qs)]
	for i, q := range qs {
		c.qs[i] = ruleserver.WireQuery{
			Tenant: q.Tenant, Coll: q.Coll, Nodes: q.Nodes, PPN: q.PPN, Msg: q.Msg,
		}
	}
	if err := c.c.LookupBatch(c.qs, c.rs); err != nil {
		c.c.Close()
		return err
	}
	for i := range c.rs {
		res[i] = Result{Alg: c.rs[i].Alg, OK: c.rs[i].OK}
	}
	t.put(c)
	return nil
}

// Close drains and closes every pooled connection.
func (t *TCPTarget) Close() {
	for {
		select {
		case c := <-t.pool:
			c.c.Close()
		default:
			return
		}
	}
}

func (t *TCPTarget) Name() string { return wireTargetName(t.addr) }

// wireTargetName is the report label for a wire target at addr: the
// address itself when it names a scheme, tcp://addr otherwise.
func wireTargetName(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "tcp://" + addr
}
