package ruleserver_test

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
	"acclaim/internal/ruleserver"
)

// pipeClient starts a wire server conn over net.Pipe and returns a
// handshaken client. The server goroutine exits when the client (or
// the test cleanup) closes its end.
func pipeClient(t *testing.T, reg *ruleserver.Registry, tenants []ruleserver.TenantKey) *ruleserver.WireClient {
	t.Helper()
	ws := ruleserver.NewWireServer(reg)
	cliEnd, srvEnd := net.Pipe()
	//acclaim:goroutine-owner test server conn; exits when the client end closes
	go ws.ServeConn(srvEnd)
	c, err := ruleserver.NewWireClient(cliEnd, tenants)
	if err != nil {
		cliEnd.Close()
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func wireFixtureRegistry(t *testing.T) (*ruleserver.Registry, []ruleserver.TenantKey) {
	t.Helper()
	reg := ruleserver.NewRegistry()
	rng := rand.New(rand.NewSource(11))
	a := ruleserver.TenantKey{Cluster: "a", JobClass: "batch", MPIVer: "mpich"}
	b := ruleserver.TenantKey{Cluster: "b", JobClass: "debug", MPIVer: "ompi"}
	if err := reg.Swap(a, fixtureFile()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap(b, genFile(rng, "bcast", "allreduce", "gather")); err != nil {
		t.Fatal(err)
	}
	return reg, []ruleserver.TenantKey{a, b}
}

func TestWireClientRoundTrip(t *testing.T) {
	reg, tenants := wireFixtureRegistry(t)
	unknown := ruleserver.TenantKey{Cluster: "ghost", JobClass: "x", MPIVer: "y"}
	c := pipeClient(t, reg, append(tenants, unknown))

	// Batches across tenants and collectives must answer exactly as
	// direct registry lookups, over several batches so the dictionary
	// delta path (first batch) and warm path (later batches) both run.
	rng := rand.New(rand.NewSource(5))
	qs := make([]ruleserver.WireQuery, 64)
	res := make([]ruleserver.WireResult, 64)
	for round := 0; round < 5; round++ {
		for i := range qs {
			qs[i] = ruleserver.WireQuery{
				Tenant: rng.Intn(3),
				Coll:   []coll.Collective{coll.Bcast, coll.Allreduce, coll.Gather, coll.Reduce}[rng.Intn(4)],
				Nodes:  1 + rng.Intn(64),
				PPN:    1 + rng.Intn(32),
				Msg:    1 << uint(rng.Intn(21)),
			}
		}
		if err := c.LookupBatch(qs, res); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, q := range qs {
			var wantAlg string
			var wantOK bool
			if q.Tenant < 2 {
				wantAlg, wantOK = reg.Lookup(tenants[q.Tenant], q.Coll, q.Nodes, q.PPN, q.Msg)
			}
			if res[i].OK != wantOK || res[i].Alg != wantAlg {
				t.Fatalf("round %d query %d (%+v): wire = (%q,%v), direct = (%q,%v)",
					round, i, q, res[i].Alg, res[i].OK, wantAlg, wantOK)
			}
		}
	}

	// Single-query convenience path.
	alg, ok, err := c.Lookup(ruleserver.WireQuery{Tenant: 0, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 512})
	if err != nil || !ok || alg != "binomial" {
		t.Fatalf("Lookup = (%q,%v,%v), want (binomial,true,nil)", alg, ok, err)
	}
}

func TestWireClientValidation(t *testing.T) {
	reg, tenants := wireFixtureRegistry(t)
	c := pipeClient(t, reg, tenants[:1])

	res := make([]ruleserver.WireResult, 1)
	cases := []struct {
		name string
		q    ruleserver.WireQuery
		want string
	}{
		{"tenant out of range", ruleserver.WireQuery{Tenant: 5, Coll: coll.Bcast, Nodes: 1, PPN: 1, Msg: 1}, "tenant 5 out of range"},
		{"negative tenant", ruleserver.WireQuery{Tenant: -1, Coll: coll.Bcast, Nodes: 1, PPN: 1, Msg: 1}, "tenant -1 out of range"},
		{"bad collective", ruleserver.WireQuery{Coll: coll.Collective(99), Nodes: 1, PPN: 1, Msg: 1}, "not served"},
		{"negative nodes", ruleserver.WireQuery{Coll: coll.Bcast, Nodes: -1, PPN: 1, Msg: 1}, "out of u32 range"},
		{"negative msg", ruleserver.WireQuery{Coll: coll.Bcast, Nodes: 1, PPN: 1, Msg: -5}, "out of u32 range"},
	}
	for _, tc := range cases {
		err := c.LookupBatch([]ruleserver.WireQuery{tc.q}, res)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// Client-side validation failures must not poison the connection.
	if _, ok, err := c.Lookup(ruleserver.WireQuery{Tenant: 0, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 512}); err != nil || !ok {
		t.Fatalf("connection poisoned after validation errors: ok=%v err=%v", ok, err)
	}

	// Short result slice and oversized batch.
	big := make([]ruleserver.WireQuery, 2)
	if err := c.LookupBatch(big, res[:1]); err == nil {
		t.Fatal("short result slice accepted")
	}
	if err := c.LookupBatch(make([]ruleserver.WireQuery, ruleserver.MaxWireBatch+1),
		make([]ruleserver.WireResult, ruleserver.MaxWireBatch+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// Empty batch is a no-op.
	if err := c.LookupBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// rawConn dials the server and returns the raw pipe end for crafting
// malformed frames by hand.
func rawServerConn(t *testing.T, reg *ruleserver.Registry) net.Conn {
	t.Helper()
	ws := ruleserver.NewWireServer(reg)
	cliEnd, srvEnd := net.Pipe()
	//acclaim:goroutine-owner test server conn; exits when the client end closes or the protocol errors out
	go ws.ServeConn(srvEnd)
	t.Cleanup(func() { cliEnd.Close() })
	return cliEnd
}

func writeRawFrame(t *testing.T, c net.Conn, payload []byte) {
	t.Helper()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
}

// readRawFrame reads one frame, expecting it to arrive whole.
func readRawFrame(t *testing.T, c net.Conn) []byte {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestWireServerRejectsBadHello(t *testing.T) {
	reg, _ := wireFixtureRegistry(t)
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"wrong frame type", []byte{0x7f, 0, 0, 0, 0, 0, 0, 0}, "want hello"},
		{"bad magic", []byte{0x01, 'X', 'X', 'X', 'X', 1, 1, 0, 1, 0, 'a', 1, 0, 'b', 1, 0, 'c'}, "bad magic"},
		{"bad version", []byte{0x01, 'A', 'C', 'L', 'M', 9, 1, 0, 1, 0, 'a', 1, 0, 'b', 1, 0, 'c'}, "version 9"},
		{"zero tenants", []byte{0x01, 'A', 'C', 'L', 'M', 1, 0, 0}, "tenant count 0"},
		{"truncated tenant", []byte{0x01, 'A', 'C', 'L', 'M', 1, 1, 0, 9, 0, 'a'}, "truncated hello"},
		{"trailing bytes", []byte{0x01, 'A', 'C', 'L', 'M', 1, 1, 0, 1, 0, 'a', 1, 0, 'b', 1, 0, 'c', 0xff}, "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := rawServerConn(t, reg)
			writeRawFrame(t, c, tc.payload)
			frame := readRawFrame(t, c)
			if frame[0] != 0x05 {
				t.Fatalf("frame type 0x%02x, want error frame", frame[0])
			}
			if !strings.Contains(string(frame[3:]), tc.want) {
				t.Fatalf("error %q, want containing %q", frame[3:], tc.want)
			}
			// The server closes after an error frame.
			if _, err := io.ReadFull(c, make([]byte, 1)); err == nil {
				t.Fatal("connection still open after error frame")
			}
		})
	}
}

func TestWireServerRejectsOversizedFrame(t *testing.T) {
	reg, _ := wireFixtureRegistry(t)
	c := rawServerConn(t, reg)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], ruleserver.MaxWireFrameBytes+1)
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// An oversized length prefix drops the connection without reading
	// the payload (nothing to trust in the stream after it).
	if _, err := io.ReadFull(c, make([]byte, 1)); err == nil {
		t.Fatal("connection still open after oversized length prefix")
	}
}

// truncConn passes the handshake through and then cuts the first batch
// response short, closing the connection mid-frame — the short-read
// case the client must surface as an error, not hang on or misparse.
type truncConn struct {
	net.Conn
	writes int
}

func (c *truncConn) Write(p []byte) (int, error) {
	c.writes++
	// Write 1 is the hello-ack header, write 2 its payload; write 3 is
	// the first batch response (assembled as one buffer).
	if c.writes <= 2 {
		return c.Conn.Write(p)
	}
	n, err := c.Conn.Write(p[:7])
	c.Conn.Close()
	if err == nil {
		err = io.ErrClosedPipe
	}
	return n, err
}

func TestWireClientTruncatedResponse(t *testing.T) {
	reg, tenants := wireFixtureRegistry(t)
	ws := ruleserver.NewWireServer(reg)
	cliEnd, srvEnd := net.Pipe()
	//acclaim:goroutine-owner test server conn; exits when its truncating conn closes
	go ws.ServeConn(&truncConn{Conn: srvEnd})
	c, err := ruleserver.NewWireClient(cliEnd, tenants)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer c.Close()
	_, _, err = c.Lookup(ruleserver.WireQuery{Tenant: 0, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 512})
	if err == nil {
		t.Fatal("truncated response frame did not error")
	}
}

func TestDialWireRefused(t *testing.T) {
	// A listener that is immediately closed: DialWire must surface the
	// transport error rather than hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := ruleserver.DialWire(addr, []ruleserver.TenantKey{ruleserver.DefaultTenant}); err == nil {
		t.Fatal("DialWire to closed listener succeeded")
	}
}

func TestWireServeListener(t *testing.T) {
	reg, tenants := wireFixtureRegistry(t)
	ws := ruleserver.NewWireServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	//acclaim:goroutine-owner test acceptor; exits when the listener closes below
	go func() { done <- ws.Serve(ln) }()

	c, err := ruleserver.DialWire(ln.Addr().String(), tenants)
	if err != nil {
		t.Fatal(err)
	}
	alg, ok, err := c.Lookup(ruleserver.WireQuery{Tenant: 0, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 512})
	if err != nil || !ok || alg != "binomial" {
		t.Fatalf("over TCP: (%q,%v,%v)", alg, ok, err)
	}
	c.Close()
	ln.Close()
	if err := <-done; err == nil {
		t.Fatal("Serve returned nil after listener close")
	}
}

// TestWireServerRegister checks the wire.* transport metrics: one
// handshaken connection serving one batch, then a second connection
// dropped on a protocol error.
func TestWireServerRegister(t *testing.T) {
	reg, tenants := wireFixtureRegistry(t)
	ws := ruleserver.NewWireServer(reg)
	mreg := obs.NewRegistry()
	ws.Register(mreg)
	ws.Register(nil) // no-op

	cliEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	//acclaim:goroutine-owner test server conn; exits when the client end closes
	go func() { ws.ServeConn(srvEnd); close(done) }()
	c, err := ruleserver.NewWireClient(cliEnd, tenants)
	if err != nil {
		t.Fatal(err)
	}
	qs := []ruleserver.WireQuery{
		{Tenant: 0, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 512},
		{Tenant: 1, Coll: coll.Bcast, Nodes: 4, PPN: 8, Msg: 512},
	}
	res := make([]ruleserver.WireResult, len(qs))
	if err := c.LookupBatch(qs, res); err != nil {
		t.Fatal(err)
	}
	if got := mreg.Snapshot()["wire.active_connections"]; got != float64(1) {
		t.Fatalf("wire.active_connections = %v, want 1", got)
	}
	c.Close()
	<-done

	// A garbage hello counts as a protocol error.
	cliEnd2, srvEnd2 := net.Pipe()
	done2 := make(chan struct{})
	//acclaim:goroutine-owner test server conn; exits when the hello is rejected
	go func() { ws.ServeConn(srvEnd2); close(done2) }()
	writeRawFrame(t, cliEnd2, []byte{0xFF, 0x00})
	if frame := readRawFrame(t, cliEnd2); len(frame) == 0 || frame[0] != 0x05 {
		t.Fatalf("want error frame for garbage hello, got % x", frame)
	}
	<-done2
	cliEnd2.Close()

	snap := mreg.Snapshot()
	for name, want := range map[string]float64{
		"wire.batches_total":      1,
		"wire.queries_total":      2,
		"wire.proto_errors_total": 1,
		"wire.active_connections": 0,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
