package ruleserver

import (
	"testing"

	"acclaim/internal/coll"
)

// BenchmarkWireRecordCodec measures one request-record encode+decode
// plus one response-record encode+decode — the fixed-layout per-query
// cost both ends of the wire protocol pay. The baseline entry omits
// allocs/op and B/op, so benchguard hard-gates the codecs at zero
// allocations (the runtime half of their //acclaim:zeroalloc
// annotations).
func BenchmarkWireRecordCodec(b *testing.B) {
	buf := make([]byte, reqRecordBytes+respRecordBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := putReqRecord(buf, 0, 1, uint32(coll.Bcast), 64, 8, uint32(i))
		tenant, cid, nodes, ppn, msg := getReqRecord(buf, 0)
		_ = tenant + cid + nodes + ppn + msg
		off = putRespRecord(buf, off, uint32(i&7))
		if getRespRecord(buf, off-respRecordBytes) != uint32(i&7) {
			b.Fatal("resp record corrupted")
		}
	}
}

// BenchmarkWireBatchServe measures the full warm server-side batch
// path — frame decode, per-query shard lookup, dictionary check,
// response assembly — for a 64-query batch, reported per batch. Like
// the record codec, its baseline omits allocs/op: once the algorithm
// dictionary and reused buffers are warm, serving a batch must not
// allocate.
func BenchmarkWireBatchServe(b *testing.B) {
	reg := NewRegistry()
	key := TenantKey{Cluster: "bench", JobClass: "default", MPIVer: "default"}
	if err := reg.Swap(key, wireTestFile()); err != nil {
		b.Fatal(err)
	}
	srv, _ := reg.Tenant(key)
	sc := testConn(srv)

	const batch = 64
	buf := make([]byte, 5+batch*reqRecordBytes)
	buf[0] = frameBatchReq
	buf[1] = batch
	off := 5
	for i := 0; i < batch; i++ {
		off = putReqRecord(buf, off, 0, uint32(coll.Bcast), 4, 8, uint32(1<<uint(i%20)))
	}
	if _, err := sc.handleBatch(buf); err != nil { // warm dict + buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.handleBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}
