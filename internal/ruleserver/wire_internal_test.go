package ruleserver

import (
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/rules"
)

// wireTestFile is a minimal two-band bcast file for the internal wire
// tests (the richer generators live in the external test package).
func wireTestFile() *rules.File {
	f := rules.NewFile("wire-internal")
	f.Tables["bcast"] = &rules.Table{
		Collective: "bcast",
		Buckets: []rules.NodeBucket{
			{MaxNodes: rules.Unbounded, PPNs: []rules.PPNBucket{
				{MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{
					{MaxMsg: 1024, Alg: "binomial"},
					{MaxMsg: rules.Unbounded, Alg: "scatter_ring_allgather"},
				}},
			}},
		},
	}
	return f
}

// TestWireRecordCodecZeroAlloc is the runtime half of the
// //acclaim:zeroalloc contract on the fixed-layout record codecs: the
// static analyzer proves the source contains no allocating constructs,
// and this gate proves the compiled code allocates nothing per record.
func TestWireRecordCodecZeroAlloc(t *testing.T) {
	buf := make([]byte, 64*reqRecordBytes)
	if n := testing.AllocsPerRun(200, func() {
		off := 0
		for i := 0; i < 3; i++ {
			off = putReqRecord(buf, off, 1, 2, 16, 8, 1<<uint(i))
		}
		off = 0
		for i := 0; i < 3; i++ {
			_, _, _, _, _ = getReqRecord(buf, off)
			off += reqRecordBytes
		}
		off = 0
		for i := 0; i < 3; i++ {
			off = putRespRecord(buf, off, uint32(i))
		}
		off = 0
		for i := 0; i < 3; i++ {
			_ = getRespRecord(buf, off)
			off += respRecordBytes
		}
	}); n != 0 {
		t.Fatalf("record codecs allocate %.1f/op, want 0", n)
	}
}

// TestWireRecordRoundTrip pins the exact fixed layout: encode, decode,
// compare, and check the offsets advance by the documented record
// sizes.
func TestWireRecordRoundTrip(t *testing.T) {
	buf := make([]byte, 2*reqRecordBytes)
	end := putReqRecord(buf, 0, 7, 3, 1024, 64, 1<<20)
	if end != reqRecordBytes {
		t.Fatalf("putReqRecord advanced to %d, want %d", end, reqRecordBytes)
	}
	tenant, cid, nodes, ppn, msg := getReqRecord(buf, 0)
	if tenant != 7 || cid != 3 || nodes != 1024 || ppn != 64 || msg != 1<<20 {
		t.Fatalf("round trip = (%d,%d,%d,%d,%d)", tenant, cid, nodes, ppn, msg)
	}
	if end := putRespRecord(buf, 0, 42); end != respRecordBytes {
		t.Fatalf("putRespRecord advanced to %d, want %d", end, respRecordBytes)
	}
	if got := getRespRecord(buf, 0); got != 42 {
		t.Fatalf("resp round trip = %d", got)
	}
}

// TestWireHelloAckFoundFlags pins the tail of the hello ack: one flag
// byte per hello tenant, in hello order, 1 where the registry knew the
// tenant and 0 where it did not.
func TestWireHelloAckFoundFlags(t *testing.T) {
	reg := NewRegistry()
	reg.Ensure(TenantKey{Cluster: "a", JobClass: "b", MPIVer: "c"})
	hello := []byte{frameHello, 'A', 'C', 'L', 'M', WireVersion, 2, 0,
		1, 0, 'x', 1, 0, 'y', 1, 0, 'z',
		1, 0, 'a', 1, 0, 'b', 1, 0, 'c'}
	sc := &serverConn{algID: map[string]uint32{}}
	if err := sc.handleHello(reg, hello); err != nil {
		t.Fatal(err)
	}
	ack := sc.helloAck()
	if tail := ack[len(ack)-4:]; tail[0] != 2 || tail[1] != 0 || tail[2] != 0 || tail[3] != 1 {
		t.Fatalf("hello ack tenant count and flags = % x, want 02 00 00 01", tail)
	}
}

// FuzzWireRoundTrip drives the three frame decoders — server hello,
// server batch, client hello-ack and batch-response — with arbitrary
// payload bytes. Every input must either decode or return an error;
// a panic (out-of-bounds slice walk, unchecked length field) is the
// failure the fuzzer hunts. Seeded with valid frames so mutation
// explores near-valid layouts, not just noise.
//
// Seeded corpus: testdata/fuzz/FuzzWireRoundTrip. CI runs this target
// for 30s per push (the fuzz-smoke job).
func FuzzWireRoundTrip(f *testing.F) {
	// A valid hello for one tenant (a/b/c), captured structurally.
	hello := []byte{frameHello, 'A', 'C', 'L', 'M', WireVersion, 1, 0,
		1, 0, 'a', 1, 0, 'b', 1, 0, 'c'}
	f.Add(hello)
	// A valid one-query batch request for tenant 0, collective 0.
	batch := []byte{frameBatchReq, 1, 0, 0, 0}
	batch = append(batch, make([]byte, reqRecordBytes)...)
	f.Add(batch)
	// A batch response with one dictionary entry and one record.
	resp := []byte{frameBatchResp, 1, 0, 0, 0, 1, 0, 0, 0,
		1, 0, 0, 0, 3, 0, 'a', 'l', 'g', 1, 0, 0, 0}
	f.Add(resp)
	// A hello ack naming one collective and one found tenant.
	ack := []byte{frameHelloAck, WireVersion, 1, 0, 5, 0, 'b', 'c', 'a', 's', 't', 1, 0, 1}
	f.Add(ack)

	reg := NewRegistry()
	srv := reg.Ensure(TenantKey{Cluster: "a", JobClass: "b", MPIVer: "c"})
	_ = srv
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Server side: a fresh conn state per input, hello then batch
		// (handleBatch is also probed directly so inputs that fail the
		// hello still exercise it).
		sc := &serverConn{algID: map[string]uint32{}}
		if err := sc.handleHello(reg, data); err == nil {
			_ = sc.helloAck()
		}
		sc2 := &serverConn{
			algID:  map[string]uint32{},
			shards: []*Server{srv, nil},
			found:  []bool{true, false},
		}
		if out, err := sc2.handleBatch(data); err == nil && len(out) == 0 {
			t.Fatal("handleBatch returned empty frame without error")
		}

		// Client side: hello-ack and batch-response decoders.
		cl := &WireClient{tenants: []TenantKey{{Cluster: "a", JobClass: "b", MPIVer: "c"}}, algs: make([]string, 1)}
		_ = cl.parseHelloAck(data)
		cl2 := &WireClient{tenants: []TenantKey{{Cluster: "a", JobClass: "b", MPIVer: "c"}}, algs: make([]string, 1)}
		for i := range cl2.collID {
			cl2.collID[i] = int32(i)
		}
		res := make([]WireResult, MaxWireBatch)
		_ = cl2.decodeBatchResponse(data, res)
	})
}

// TestWireBatchEncodeSteadyStateAllocs pins the whole server batch
// path — decode, lookup, dictionary check, response assembly — at zero
// allocations once buffers and the algorithm dictionary are warm.
func TestWireBatchEncodeSteadyStateAllocs(t *testing.T) {
	reg := NewRegistry()
	key := TenantKey{Cluster: "a", JobClass: "b", MPIVer: "c"}
	if err := reg.Swap(key, wireTestFile()); err != nil {
		t.Fatal(err)
	}
	srv, _ := reg.Tenant(key)
	sc := &serverConn{algID: map[string]uint32{}, shards: []*Server{srv}, found: []bool{true}}

	const batch = 16
	payload := make([]byte, 5, 5+batch*reqRecordBytes)
	payload[0] = frameBatchReq
	payload[1] = batch
	buf := payload[:cap(payload)]
	off := 5
	for i := 0; i < batch; i++ {
		off = putReqRecord(buf, off, 0, uint32(coll.Bcast), 4, 8, uint32(1<<uint(i%16)))
	}
	buf = buf[:off]

	// Warm the dictionary and the reused buffers.
	if _, err := sc.handleBatch(buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sc.handleBatch(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm handleBatch allocates %.1f/op, want 0", n)
	}
}
