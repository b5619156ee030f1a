package loadgen_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/loadgen"
	"acclaim/internal/ruleserver"
)

// wireTenants builds the t<i>/default/default convention keys.
func wireTenants(n int) []ruleserver.TenantKey {
	keys := make([]ruleserver.TenantKey, n)
	for i := range keys {
		keys[i] = ruleserver.TenantKey{Cluster: fmt.Sprintf("t%d", i), JobClass: "default", MPIVer: "default"}
	}
	return keys
}

// pipeTCPTarget builds a TCPTarget whose connections are net.Pipe ends
// served by an in-process wire server over reg.
func pipeTCPTarget(t *testing.T, reg *ruleserver.Registry, tenants []ruleserver.TenantKey) *loadgen.TCPTarget {
	t.Helper()
	ws := ruleserver.NewWireServer(reg)
	tgt, err := loadgen.NewTCPTargetConn("pipe", tenants, 8, func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		//acclaim:goroutine-owner test server conn; exits when the client end closes
		go ws.ServeConn(srvEnd)
		return cliEnd, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tgt.Close)
	return tgt
}

// multiTenantRegistry loads the loadgen fixture into n shards.
func multiTenantRegistry(t *testing.T, n int) (*ruleserver.Registry, []ruleserver.TenantKey) {
	t.Helper()
	reg := ruleserver.NewRegistry()
	keys := wireTenants(n)
	for _, k := range keys {
		if err := reg.Swap(k, loadgenFixtureFile()); err != nil {
			t.Fatal(err)
		}
	}
	return reg, keys
}

func TestTCPTargetSelectAndBatch(t *testing.T) {
	reg, keys := multiTenantRegistry(t, 2)
	tgt := pipeTCPTarget(t, reg, keys)

	alg, ok, err := tgt.Select(loadgen.Query{Tenant: 1, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 64})
	if err != nil || !ok || alg != "binomial" {
		t.Fatalf("Select = (%q,%v,%v), want (binomial,true,nil)", alg, ok, err)
	}
	if _, ok, err := tgt.Select(loadgen.Query{Coll: coll.Scatter, Nodes: 4, PPN: 8, Msg: 64}); err != nil || ok {
		t.Fatalf("uncovered collective: ok=%v err=%v, want miss", ok, err)
	}

	qs := []loadgen.Query{
		{Tenant: 0, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 64},
		{Tenant: 1, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 1 << 20},
		{Tenant: 0, Coll: coll.Gather, Nodes: 4, PPN: 8, Msg: 64},
		{Tenant: 1, Coll: coll.Allreduce, Nodes: 16, PPN: 8, Msg: 256},
	}
	res := make([]loadgen.Result, len(qs))
	if err := tgt.SelectBatch(qs, res); err != nil {
		t.Fatal(err)
	}
	want := []loadgen.Result{
		{Alg: "binomial", OK: true},
		{Alg: "scatter_ring_allgather", OK: true},
		{},
		{Alg: "recursive_doubling", OK: true},
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("batch[%d] = %+v, want %+v", i, res[i], want[i])
		}
	}
	if err := tgt.SelectBatch(qs, res[:2]); err == nil {
		t.Fatal("short result slice accepted")
	}
	if tgt.Name() != "tcp://pipe" {
		t.Fatalf("Name = %q", tgt.Name())
	}
}

// TestTCPTargetMultiTenantRun drives the full harness — batched
// transport, zipf tenant skew, scripted clocks — and pins report
// plumbing plus byte-identical determinism.
func TestTCPTargetMultiTenantRun(t *testing.T) {
	reg, keys := multiTenantRegistry(t, 4)
	tgt := pipeTCPTarget(t, reg, keys)
	mix := testMix()
	mix.Tenants = 4
	mix.TenantSkew = loadgen.SkewZipf
	mix.ZipfS = 1.5
	cfg := loadgen.Config{
		Target:   tgt,
		Mix:      mix,
		Workers:  3,
		Requests: 2000,
		Batch:    16,
		Seed:     42,
		Clock:    func(i int) loadgen.Clock { return &scriptClock{t: int64(i) * 1000, step: 13} },
	}
	var out [2]bytes.Buffer
	for round := 0; round < 2; round++ {
		rep, err := loadgen.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&out[round]); err != nil {
			t.Fatal(err)
		}
		if rep.Requests != 2000 || rep.Errors != 0 {
			t.Fatalf("requests %d errors %d, want 2000/0", rep.Requests, rep.Errors)
		}
		if rep.Batch != 16 || rep.Tenants != 4 || rep.TenantSkew != "zipf" {
			t.Fatalf("report batch/tenant header = %d/%d/%q", rep.Batch, rep.Tenants, rep.TenantSkew)
		}
		if len(rep.PerTenant) != 4 {
			t.Fatalf("per_tenant has %d entries, want 4", len(rep.PerTenant))
		}
		var total uint64
		for i, tr := range rep.PerTenant {
			if tr.Tenant != i {
				t.Fatalf("per_tenant[%d].Tenant = %d", i, tr.Tenant)
			}
			total += tr.Requests
		}
		if total != rep.Requests-rep.Errors {
			t.Fatalf("per-tenant requests sum %d, want %d", total, rep.Requests)
		}
		// Zipf skew concentrates load on the low tenant indexes.
		if rep.PerTenant[0].Requests <= rep.PerTenant[3].Requests {
			t.Fatalf("zipf skew missing: tenant0 %d <= tenant3 %d",
				rep.PerTenant[0].Requests, rep.PerTenant[3].Requests)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("batched multi-tenant reports differ between identical runs:\n%s\n----\n%s",
			out[0].String(), out[1].String())
	}
}

// TestTCPTargetUniformTenants checks the uniform skew spreads load
// roughly evenly (and that per-tenant misses are tracked).
func TestTCPTargetUniformTenants(t *testing.T) {
	reg, keys := multiTenantRegistry(t, 3)
	tgt := pipeTCPTarget(t, reg, keys)
	mix := testMix()
	mix.Tenants = 3
	rep, err := loadgen.Run(loadgen.Config{
		Target:   tgt,
		Mix:      mix,
		Workers:  2,
		Requests: 1500,
		Batch:    8,
		Seed:     9,
		Clock:    func(i int) loadgen.Clock { return &scriptClock{t: int64(i), step: 7} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TenantSkew != "uniform" {
		t.Fatalf("TenantSkew = %q", rep.TenantSkew)
	}
	for _, tr := range rep.PerTenant {
		if tr.Requests < 300 {
			t.Fatalf("uniform skew: tenant %d got only %d of 1500", tr.Tenant, tr.Requests)
		}
		if tr.Misses == 0 {
			t.Fatalf("tenant %d: want gather misses", tr.Tenant)
		}
	}
}

func TestTCPTargetTransportFailure(t *testing.T) {
	// Dial failure: every query errors, none reach the distribution or
	// the throughput. Batch 0 drives the unbatched worker loop, Batch 5
	// the batched one; a loop that recorded a failed query's latency
	// would show a nonzero p99 and throughput under the scripted clock.
	bad, err := loadgen.NewTCPTargetConn("down", wireTenants(1), 2, func() (net.Conn, error) {
		return nil, errors.New("connection refused")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 5} {
		rep, err := loadgen.Run(loadgen.Config{
			Target:   bad,
			Mix:      testMix(),
			Workers:  1,
			Requests: 10,
			Batch:    batch,
			Seed:     1,
			Clock:    func(int) loadgen.Clock { return &scriptClock{step: 3} },
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 10 || rep.ThroughputQPS != 0 || rep.Latency.P99Ns != 0 {
			t.Fatalf("batch %d dial-failure run: errors %d qps %.0f p99 %.0f, want 10/0/0",
				batch, rep.Errors, rep.ThroughputQPS, rep.Latency.P99Ns)
		}
	}

	// A connection that dies mid-stream: the target discards it and
	// surfaces the error; a later call dials fresh and succeeds.
	reg, keys := multiTenantRegistry(t, 1)
	ws := ruleserver.NewWireServer(reg)
	fail := true
	tgt, err := loadgen.NewTCPTargetConn("flaky", keys, 2, func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		if fail {
			// Server closes right after the handshake.
			//acclaim:goroutine-owner test conn killer; exits after closing the handshaken conn
			go func() {
				c := &handshakeThenClose{Conn: srvEnd}
				ws.ServeConn(c)
			}()
		} else {
			//acclaim:goroutine-owner test server conn; exits when the client end closes
			go ws.ServeConn(srvEnd)
		}
		return cliEnd, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	if _, _, err := tgt.Select(loadgen.Query{Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 64}); err == nil {
		t.Fatal("want error from connection that died after handshake")
	}
	fail = false
	if alg, ok, err := tgt.Select(loadgen.Query{Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 64}); err != nil || !ok || alg != "binomial" {
		t.Fatalf("recovery Select = (%q,%v,%v)", alg, ok, err)
	}
}

// handshakeThenClose lets the hello ack through, then closes before
// any batch response.
type handshakeThenClose struct {
	net.Conn
	writes int
}

func (c *handshakeThenClose) Write(p []byte) (int, error) {
	c.writes++
	if c.writes <= 2 { // ack header + payload
		return c.Conn.Write(p)
	}
	c.Conn.Close()
	return 0, errors.New("killed")
}

func TestBatchNeedsBatchTarget(t *testing.T) {
	_, err := loadgen.Run(loadgen.Config{
		Target:   fixtureTarget(t),
		Mix:      testMix(),
		Requests: 10,
		Batch:    4,
	})
	if err == nil {
		t.Fatal("Batch>1 with a non-batching target must error")
	}
}

func TestMixTenantValidation(t *testing.T) {
	mix := testMix()
	mix.Tenants = 4
	mix.TenantSkew = "pareto"
	if _, err := loadgen.Run(loadgen.Config{
		Target: fixtureTarget(t), Mix: mix, Requests: 10,
	}); err == nil {
		t.Fatal("bad tenant skew accepted")
	}
}

func TestRegistryTarget(t *testing.T) {
	reg, keys := multiTenantRegistry(t, 2)
	tgt, err := loadgen.NewRegistryTarget(reg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if alg, ok, err := tgt.Select(loadgen.Query{Tenant: 1, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 64}); err != nil || !ok || alg != "binomial" {
		t.Fatalf("Select = (%q,%v,%v)", alg, ok, err)
	}
	if _, _, err := tgt.Select(loadgen.Query{Tenant: 7, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 64}); err == nil {
		t.Fatal("out-of-range tenant index must error")
	}
	if tgt.Name() != "inproc" {
		t.Fatalf("Name = %q", tgt.Name())
	}
	if _, err := loadgen.NewRegistryTarget(reg, nil); err == nil {
		t.Fatal("empty tenant list accepted")
	}
}

func TestWriteBenchPrefixed(t *testing.T) {
	rep, err := loadgen.Run(loadgen.Config{
		Target:   fixtureTarget(t),
		Mix:      testMix(),
		Workers:  1,
		Requests: 100,
		Seed:     1,
		Clock:    func(int) loadgen.Clock { return &scriptClock{step: 10} },
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteBenchPrefixed(&buf, "TCPLoadSmoke", "tcp_"); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("tcp_throughput_qps")) ||
		!bytes.Contains(buf.Bytes(), []byte("tcp_p99_ns")) {
		t.Fatalf("prefixed bench line missing prefixed units: %q", line)
	}
}

// TestWireTargetName pins the report label of a wire target: a bare
// host:port gains tcp://, an address that names a scheme stays as is.
func TestWireTargetName(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:9090":     "tcp://127.0.0.1:9090",
		"unix:///tmp/a.sock": "unix:///tmp/a.sock",
	} {
		tgt, err := loadgen.NewTCPTarget(addr, wireTenants(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := tgt.Name(); got != want {
			t.Errorf("Name() for %q = %q, want %q", addr, got, want)
		}
	}
}
