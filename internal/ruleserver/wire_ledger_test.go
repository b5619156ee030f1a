package ruleserver

import (
	"net"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
)

// Tenants of the ledger tests: two with rules, and one the registry
// does not know, negotiated in this order so wire tenant ids 0 and 2
// are known and 1 always misses.
var (
	ledgerA       = TenantKey{Cluster: "a", JobClass: "default", MPIVer: "default"}
	ledgerUnknown = TenantKey{Cluster: "u", JobClass: "default", MPIVer: "default"}
	ledgerB       = TenantKey{Cluster: "b", JobClass: "default", MPIVer: "default"}
)

// ledgerRegistry returns a registry holding tenants A (wireTestFile:
// bcast only) and B (recordBenchFile: a production-shaped bcast
// table). Every other collective has no table, so it misses.
func ledgerRegistry(t testing.TB) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Swap(ledgerA, wireTestFile()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap(ledgerB, recordBenchFile()); err != nil {
		t.Fatal(err)
	}
	return reg
}

// allreduceFile is tenant A's second rule file: bcast and allreduce
// tables, so swapping it in moves allreduce queries from misses to
// hits.
func allreduceFile() *rules.File {
	f := wireTestFile()
	f.Tables["allreduce"] = &rules.Table{
		Collective: "allreduce",
		Buckets: []rules.NodeBucket{{MaxNodes: rules.Unbounded, PPNs: []rules.PPNBucket{{
			MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{{MaxMsg: rules.Unbounded, Alg: "recursive_doubling"}},
		}}}},
	}
	return f
}

// wirePipe serves reg over one end of a net.Pipe and returns the wire
// server's registered counters, the raw client end, and a channel
// closed when ServeConn returns.
func wirePipe(reg *Registry) (*obs.Registry, net.Conn, <-chan struct{}) {
	ws := NewWireServer(reg)
	metrics := obs.NewRegistry()
	ws.Register(metrics)
	srvEnd, cliEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.ServeConn(srvEnd)
	}()
	return metrics, cliEnd, done
}

// epochLedger is one snapshot's counts: per-collective lookups and
// misses, and the latency histogram's sample count.
type epochLedger struct {
	lookups, misses [coll.NumCollectives + 1]uint64
	samples         uint64
}

func (l *epochLedger) add(sn *snapshot) {
	for i := range sn.perColl {
		l.lookups[i] += sn.perColl[i].lookups.Load()
		l.misses[i] += sn.perColl[i].misses.Load()
	}
	l.samples += sn.lat.Snapshot().Count
}

func (l *epochLedger) total() (n uint64) {
	for _, v := range l.lookups {
		n += v
	}
	return n
}

// TestWireRejectedFrameCountsNothing: a frame whose record i > 0
// carries an out-of-range tenant or collective id is rejected before
// any of its records is answered, so the registry ledger and the
// latency histogram still equal wire.queries_total afterwards.
func TestWireRejectedFrameCountsNothing(t *testing.T) {
	for _, tc := range []struct {
		name            string
		badTenant, bad  uint32
		badAt, nRecords int
	}{
		{name: "tenant", badTenant: 7, bad: uint32(coll.Bcast), badAt: 1, nRecords: 3},
		{name: "collective", badTenant: 0, bad: uint32(coll.NumCollectives), badAt: 2, nRecords: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := ledgerRegistry(t)
			metrics, cliEnd, done := wirePipe(reg)
			cl, err := NewWireClient(cliEnd, []TenantKey{ledgerA, ledgerUnknown, ledgerB})
			if err != nil {
				t.Fatal(err)
			}
			qs := []WireQuery{
				{Tenant: 0, Coll: coll.Bcast, Nodes: 4, PPN: 2, Msg: 64},
				{Tenant: 2, Coll: coll.Allreduce, Nodes: 4, PPN: 2, Msg: 64},
				{Tenant: 1, Coll: coll.Bcast, Nodes: 4, PPN: 2, Msg: 64},
			}
			if err := cl.LookupBatch(qs, make([]WireResult, len(qs))); err != nil {
				t.Fatal(err)
			}

			payload := make([]byte, 5+tc.nRecords*reqRecordBytes)
			payload[0] = frameBatchReq
			payload[1] = byte(tc.nRecords)
			off := 5
			for i := 0; i < tc.nRecords; i++ {
				tenant, cid := uint32(i%3), uint32(coll.Bcast)
				if i == tc.badAt {
					tenant, cid = tc.badTenant, tc.bad
				}
				off = putReqRecord(payload, off, tenant, cid, 4, 2, 64)
			}
			if err := writeFrame(cliEnd, payload); err != nil {
				t.Fatal(err)
			}
			resp, err := readFrame(cl.br, &cl.in)
			if err != nil {
				t.Fatal(err)
			}
			if resp[0] != frameError {
				t.Fatalf("invalid frame answered with frame type 0x%02x, want error", resp[0])
			}
			cl.Close()
			<-done

			queries := uint64(metrics.Snapshot()["wire.queries_total"].(float64))
			if queries != uint64(len(qs)) {
				t.Fatalf("wire.queries_total = %d, want %d", queries, len(qs))
			}
			var ledger epochLedger
			for _, key := range []TenantKey{ledgerA, ledgerB} {
				srv, _ := reg.Tenant(key)
				ledger.add(srv.cur.Load())
			}
			known := uint64(2) // the unknown tenant's query is answered but counted nowhere
			if got := reg.Stats().Lookups; got != known || ledger.total() != known || ledger.samples != known {
				t.Fatalf("after a rejected frame: registry lookups %d, ledger %d, latency samples %d; want %d each",
					got, ledger.total(), ledger.samples, known)
			}
		})
	}
}

// TestWireLedgerExact drives interleaved frames of two known tenants
// and one unknown tenant over the wire, swaps tenant A's rule file
// between frames, and checks that, summed over both epochs, every
// per-collective lookup and miss count and every latency histogram
// count equals the queries the known tenants answered — each epoch on
// its own too — and that the answers match the index the frame was
// served from.
func TestWireLedgerExact(t *testing.T) {
	reg := ledgerRegistry(t)
	srvA, _ := reg.Tenant(ledgerA)
	srvB, _ := reg.Tenant(ledgerB)
	metrics, cliEnd, done := wirePipe(reg)
	cl, err := NewWireClient(cliEnd, []TenantKey{ledgerA, ledgerUnknown, ledgerB})
	if err != nil {
		t.Fatal(err)
	}

	colls := []coll.Collective{coll.Bcast, coll.Allreduce, coll.Bcast, coll.Reduce}
	var want [2]epochLedger // per known tenant, summed over epochs
	var sent uint64
	oldA := srvA.cur.Load()
	const frames, batch = 12, 61
	qs := make([]WireQuery, batch)
	res := make([]WireResult, batch)
	for f := 0; f < frames; f++ {
		if f == frames/2 {
			if err := reg.Swap(ledgerA, allreduceFile()); err != nil {
				t.Fatal(err)
			}
		}
		for i := range qs {
			k := f*batch + i
			qs[i] = WireQuery{Tenant: k % 3, Coll: colls[k%len(colls)], Nodes: 1 + k%40, PPN: 1 + k%7, Msg: (k * 977) % (1 << 20)}
		}
		if err := cl.LookupBatch(qs, res); err != nil {
			t.Fatal(err)
		}
		sent += batch
		for i, q := range qs {
			if q.Tenant == 1 {
				if res[i].OK {
					t.Fatalf("frame %d query %d: unknown tenant answered %q", f, i, res[i].Alg)
				}
				continue
			}
			srv, w := srvA, &want[0]
			if q.Tenant == 2 {
				srv, w = srvB, &want[1]
			}
			alg, ok := srv.Index().Lookup(q.Coll, q.Nodes, q.PPN, q.Msg)
			if alg != res[i].Alg || ok != res[i].OK {
				t.Fatalf("frame %d query %d %+v: wire answered (%q, %v), index (%q, %v)", f, i, q, res[i].Alg, res[i].OK, alg, ok)
			}
			w.lookups[q.Coll]++
			w.samples++
			if !ok {
				w.misses[q.Coll]++
			}
		}
	}
	cl.Close()
	<-done

	if got := uint64(metrics.Snapshot()["wire.queries_total"].(float64)); got != sent {
		t.Fatalf("wire.queries_total = %d, want %d", got, sent)
	}
	var gotA, gotB epochLedger
	gotA.add(oldA)
	gotA.add(srvA.cur.Load())
	gotB.add(srvB.cur.Load())
	if gotA != want[0] || gotB != want[1] {
		t.Fatalf("ledger summed over epochs:\nA got %+v\n  want %+v\nB got %+v\n  want %+v", gotA, want[0], gotB, want[1])
	}
	for name, sn := range map[string]*snapshot{"A old": oldA, "A new": srvA.cur.Load(), "B": srvB.cur.Load()} {
		var l epochLedger
		l.add(sn)
		if l.samples != l.total() {
			t.Errorf("%s epoch: %d latency samples for %d lookups", name, l.samples, l.total())
		}
	}
	if want[0].misses[coll.Allreduce] == 0 || want[0].lookups[coll.Allreduce] == want[0].misses[coll.Allreduce] {
		t.Fatalf("swap did not move tenant A's allreduce queries from misses to hits: %+v", want[0])
	}
}

// FuzzWireBatchLedger is a differential test of the batch frame path:
// random frames (tenants, collectives, sizes, an unknown tenant, and
// out-of-range ids that reject the frame) go through handleBatch on
// one registry, and the same queries through per-query Server.Lookup
// on a twin registry. Answers must be identical, and so must every
// tenant's per-collective lookup and miss counts; the wire side's
// latency histogram must hold exactly one sample per lookup.
//
// Each frame is a size byte followed by 5-byte records: tenant id
// (mod 4; 3 is out of range), collective id (mod NumCollectives+1;
// the last is out of range), nodes, ppn, and a message-size byte.
// CI runs this target for 30s per push (the fuzz-smoke job).
func FuzzWireBatchLedger(f *testing.F) {
	f.Add([]byte{3, 0, 0, 4, 2, 10, 1, 0, 4, 2, 10, 2, 1, 16, 8, 200})
	f.Add([]byte{1, 2, 0, 64, 8, 20, 2, 0, 0, 1, 1, 0, 3, 7, 2, 2, 2})
	f.Add([]byte{2, 0, 3, 4, 2, 10, 3, 0, 4, 2, 10, 1, 2, 0, 5, 5, 17})
	// Both registries live across inputs: they see the same query
	// stream, so their cumulative ledgers stay equal exactly when every
	// input's do.
	wireReg, twinReg := ledgerRegistry(f), ledgerRegistry(f)
	var wireShards, twinShards [3]*Server
	for i, key := range []TenantKey{ledgerA, ledgerUnknown, ledgerB} {
		wireShards[i], _ = wireReg.Tenant(key)
		twinShards[i], _ = twinReg.Tenant(key)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := testConn(wireShards[:]...)
		cl := &WireClient{algs: make([]string, 1)}
		res := make([]WireResult, 64)
		var qs []WireQuery
		for len(data) > 0 {
			n := 1 + int(data[0])%64
			data = data[1:]
			if len(data) < 5*n {
				break
			}
			payload := make([]byte, 5+n*reqRecordBytes)
			payload[0] = frameBatchReq
			payload[1] = byte(n)
			qs = qs[:0]
			valid := true
			for i := 0; i < n; i++ {
				r := data[5*i : 5*i+5]
				tenant, cid := uint32(r[0]%4), uint32(int(r[1])%(coll.NumCollectives+1))
				q := WireQuery{Tenant: int(tenant), Coll: coll.Collective(cid), Nodes: int(r[2]), PPN: int(r[3] % 16), Msg: 1<<(r[4]%24) + int(r[4])}
				putReqRecord(payload, 5+i*reqRecordBytes, tenant, cid, uint32(q.Nodes), uint32(q.PPN), uint32(q.Msg))
				valid = valid && tenant < 3 && int(cid) < coll.NumCollectives
				qs = append(qs, q)
			}
			data = data[5*n:]

			out, err := sc.handleBatch(payload)
			if !valid {
				if err == nil {
					t.Fatalf("frame with an out-of-range id accepted: %+v", qs)
				}
				continue
			}
			if err != nil {
				t.Fatalf("valid frame rejected: %v", err)
			}
			if err := cl.decodeBatchResponse(out[4:], res); err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				var alg string
				var ok bool
				if srv := twinShards[q.Tenant]; srv != nil {
					alg, ok = srv.Lookup(q.Coll, q.Nodes, q.PPN, q.Msg)
				}
				if alg != res[i].Alg || ok != res[i].OK {
					t.Fatalf("query %+v: frame answered (%q, %v), Server.Lookup (%q, %v)", q, res[i].Alg, res[i].OK, alg, ok)
				}
			}
		}
		for _, i := range []int{0, 2} {
			var w, tw epochLedger
			w.add(wireShards[i].cur.Load())
			tw.add(twinShards[i].cur.Load())
			if w.lookups != tw.lookups || w.misses != tw.misses {
				t.Fatalf("tenant %d: frame ledger %+v, per-query ledger %+v", i, w, tw)
			}
			if w.samples != w.total() {
				t.Fatalf("tenant %d: %d latency samples for %d frame lookups", i, w.samples, w.total())
			}
		}
	})
}
