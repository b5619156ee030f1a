// Binary wire protocol for out-of-process rule serving.
//
// A per-query text transport (one request-response per lookup, with
// string encode/decode and allocations on each) costs far more than the
// ~10ns index it fronts. This protocol removes that overhead with three
// ideas:
//
//   - Interned ids, negotiated once. A connection opens with a hello
//     frame naming the client's tenants; the ack assigns dense
//     connection-local tenant ids and enumerates the server's
//     collective names in id order. After the handshake every query is
//     five fixed u32 fields — no strings on the hot path. Algorithm
//     names flow back the same way: the first response carrying a new
//     algorithm includes a dictionary entry (id, name); every later
//     hit is a single u32.
//   - Fixed-layout frames. Every frame is a u32 length prefix plus a
//     typed payload; batch records are fixed-width (20-byte requests,
//     4-byte responses), varint-free, so encode and decode are
//     bounds-checked pointer arithmetic with zero allocations — the
//     //acclaim:zeroalloc record codecs below, pinned by AllocsPerRun
//     gates and fuzzed by FuzzWireRoundTrip.
//   - Batched, pipelined lookups. A request frame carries N queries
//     and the response N answers in order, so a loadgen worker or an
//     MPI job's rank-0 proxy pays one syscall per batch instead of one
//     round trip per query.
//
// A batch is also timed once: the server reads the clock when it
// starts answering a frame and when it finishes, and records that
// service time shared evenly over the frame's lookups, one HDR sample
// per lookup (RecordN), so the latency count stays exact while a
// 64-query frame pays two clock reads instead of 128. A frame is
// answered from one snapshot per tenant, and a frame with any invalid
// record is rejected before any query in it is counted.
package ruleserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"acclaim/internal/coll"
	"acclaim/internal/obs"
)

// WireVersion is the protocol revision negotiated in the hello frame.
const WireVersion = 1

// wireMagic opens every hello frame: "ACLM" little-endian.
const wireMagic uint32 = 'A' | 'C'<<8 | 'L'<<16 | 'M'<<24

// Frame types (payload byte 0).
const (
	frameHello     = 0x01 // client -> server: magic, version, tenant keys
	frameHelloAck  = 0x02 // server -> client: version, collective names, tenant found flags
	frameBatchReq  = 0x03 // client -> server: N fixed-width query records
	frameBatchResp = 0x04 // server -> client: dictionary delta + N alg-id records
	frameError     = 0x05 // server -> client: fatal protocol error; connection closes
)

// MaxWireFrameBytes bounds any single frame payload; a length prefix
// above it is a protocol error, so a garbage or hostile peer cannot
// make either side allocate unbounded memory.
const MaxWireFrameBytes = 1 << 22

// MaxWireBatch bounds the query count in one batch frame.
const MaxWireBatch = 1 << 16

// Fixed record layouts. Request: tenant, collective, nodes, ppn, msg —
// five u32 fields. Response: one u32 algorithm id, 0 meaning miss.
const (
	reqRecordBytes  = 20
	respRecordBytes = 4
)

var errFrameTooLarge = errors.New("ruleserver: wire frame exceeds size limit")

// putReqRecord encodes one query record at b[off:] and returns the
// next offset. Fixed-width little-endian u32 fields only — the per-
// query encode cost the AllocsPerRun gate pins at zero.
//
//acclaim:zeroalloc
func putReqRecord(b []byte, off int, tenant, cid, nodes, ppn, msg uint32) int {
	binary.LittleEndian.PutUint32(b[off:], tenant)
	binary.LittleEndian.PutUint32(b[off+4:], cid)
	binary.LittleEndian.PutUint32(b[off+8:], nodes)
	binary.LittleEndian.PutUint32(b[off+12:], ppn)
	binary.LittleEndian.PutUint32(b[off+16:], msg)
	return off + reqRecordBytes
}

// getReqRecord decodes one query record at b[off:].
//
//acclaim:zeroalloc
func getReqRecord(b []byte, off int) (tenant, cid, nodes, ppn, msg uint32) {
	tenant = binary.LittleEndian.Uint32(b[off:])
	cid = binary.LittleEndian.Uint32(b[off+4:])
	nodes = binary.LittleEndian.Uint32(b[off+8:])
	ppn = binary.LittleEndian.Uint32(b[off+12:])
	msg = binary.LittleEndian.Uint32(b[off+16:])
	return
}

// putRespRecord encodes one response record (algorithm id; 0 = miss)
// at b[off:] and returns the next offset.
//
//acclaim:zeroalloc
func putRespRecord(b []byte, off int, algID uint32) int {
	binary.LittleEndian.PutUint32(b[off:], algID)
	return off + respRecordBytes
}

// getRespRecord decodes one response record at b[off:].
//
//acclaim:zeroalloc
func getRespRecord(b []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(b[off:])
}

// growBuf returns b resized to n bytes, reallocating only when the
// capacity is short — the reuse pattern that keeps steady-state frame
// encode/decode allocation-free.
func growBuf(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]byte, n)
	return nb
}

// readFrame reads one length-prefixed frame payload into *buf
// (reusing its capacity) and returns the payload slice. A short read
// surfaces as io.ErrUnexpectedEOF; an oversized or empty length prefix
// as a protocol error.
func readFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxWireFrameBytes {
		return nil, errFrameTooLarge
	}
	*buf = growBuf(*buf, int(n))
	if _, err := io.ReadFull(r, *buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return *buf, nil
}

// appendString appends a u16-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// getString reads a u16-length-prefixed string at b[off:].
func getString(b []byte, off int) (string, int, error) {
	if off+2 > len(b) {
		return "", 0, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if off+n > len(b) {
		return "", 0, io.ErrUnexpectedEOF
	}
	return string(b[off : off+n]), off + n, nil
}

// writeFrame writes one length-prefixed frame built from payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeErrorFrame sends a fatal error frame; the connection closes
// after it.
func writeErrorFrame(w io.Writer, msg string) {
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	payload := make([]byte, 0, 3+len(msg))
	payload = append(payload, frameError)
	payload = appendString(payload, msg)
	_ = writeFrame(w, payload) //nolint:errcheck // best-effort; the connection is closing either way
}

// WireServer serves the binary protocol over raw TCP (or any
// net.Listener) against a multi-tenant Registry. One goroutine per
// connection; each connection's state (interned algorithm dictionary,
// reused frame buffers, resolved tenant shards) is private to that
// goroutine, so the only cross-connection sharing is the lock-free
// registry lookup itself.
type WireServer struct {
	reg *Registry

	conns      obs.Counter // connections accepted
	batches    obs.Counter // batch frames served
	queries    obs.Counter // individual queries answered
	protoErrs  obs.Counter // connections dropped on protocol errors
	activeConn obs.Gauge   // currently open connections
}

// NewWireServer returns a wire server over reg.
func NewWireServer(reg *Registry) *WireServer {
	return &WireServer{reg: reg}
}

// Register exposes the wire server's transport counters on a metrics
// registry.
func (s *WireServer) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("wire.connections_total", func() float64 { return float64(s.conns.Load()) })
	reg.Func("wire.batches_total", func() float64 { return float64(s.batches.Load()) })
	reg.Func("wire.queries_total", func() float64 { return float64(s.queries.Load()) })
	reg.Func("wire.proto_errors_total", func() float64 { return float64(s.protoErrs.Load()) })
	reg.Func("wire.active_connections", func() float64 { return s.activeConn.Load() })
}

// Serve accepts connections until the listener is closed, answering
// each on its own goroutine. It returns the first Accept error (for a
// closed listener, the usual net.ErrClosed).
func (s *WireServer) Serve(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		s.conns.Inc()
		//acclaim:goroutine-owner WireServer.Serve connection handler; exits when the peer closes or a protocol error drops the connection
		go s.ServeConn(c)
	}
}

// ServeConn answers one connection synchronously and closes it on
// return: hello handshake first, then batch frames until EOF or a
// protocol error. Exported so tests (and in-process pipes) can drive
// the protocol without a listener.
func (s *WireServer) ServeConn(nc net.Conn) {
	defer nc.Close()
	s.activeConn.Add(1)
	defer s.activeConn.Add(-1)
	c := &serverConn{algID: make(map[string]uint32, 64)}
	br := newWireReader(nc)

	payload, err := readFrame(br, &c.in)
	if err != nil {
		return
	}
	if err := c.handleHello(s.reg, payload); err != nil {
		s.protoErrs.Inc()
		writeErrorFrame(nc, err.Error())
		return
	}
	if err := writeFrame(nc, c.helloAck()); err != nil {
		return
	}

	for {
		payload, err := readFrame(br, &c.in)
		if err != nil {
			return
		}
		out, err := c.handleBatch(payload)
		if err != nil {
			s.protoErrs.Inc()
			writeErrorFrame(nc, err.Error())
			return
		}
		s.batches.Inc()
		s.queries.Add(uint64(c.lastCount))
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// newWireReader sizes the per-connection read buffer for whole batch
// frames.
func newWireReader(r io.Reader) io.Reader {
	return &bufferedReader{r: r, buf: make([]byte, 0, 64<<10)}
}

// bufferedReader is a minimal refilling reader: like bufio.Reader but
// without the interface indirection bufio adds per byte, it serves
// ReadFull calls from an internal chunk so a small frame header does
// not cost its own syscall.
type bufferedReader struct {
	r   io.Reader
	buf []byte
	off int
}

func (b *bufferedReader) Read(p []byte) (int, error) {
	if b.off == len(b.buf) {
		if len(p) >= cap(b.buf) {
			// Large reads bypass the buffer entirely.
			return b.r.Read(p)
		}
		n, err := b.r.Read(b.buf[:cap(b.buf)])
		if n == 0 {
			return 0, err
		}
		b.buf = b.buf[:n]
		b.off = 0
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

// serverConn is one connection's private protocol state.
type serverConn struct {
	shards []*Server // conn-local tenant id -> shard (nil: unknown tenant, always a miss)
	found  []bool    // per tenant: did the registry know it at hello time

	// Per-frame snapshot pins. slot[t] is 1 + t's index in touched
	// while the current frame has answered tenant t, else 0; both are
	// reset at the end of every frame. slot is sized at hello (4 bytes
	// per negotiated tenant) and touched never outgrows the tenants one
	// frame names, so the state stays bounded per connection.
	slot    []int32
	touched []frameTenant

	algID   map[string]uint32 // interned algorithm name -> conn-local wire id (ids start at 1)
	nextAlg uint32

	lastCount int // queries in the batch just handled

	in, dict, rec, out []byte // reused frame buffers
}

// frameTenant is one tenant a batch frame touched: the snapshot the
// whole frame is answered from and the lookups it made there.
type frameTenant struct {
	tenant  uint32
	sn      *snapshot
	lookups uint64
}

// handleHello validates the hello frame and resolves each tenant key
// against the registry. Unknown tenants are not an error: their
// lookups simply miss, so a fleet can point jobs at a registry before
// their first tuning round publishes rules.
func (c *serverConn) handleHello(reg *Registry, payload []byte) error {
	if payload[0] != frameHello {
		return fmt.Errorf("ruleserver: wire: first frame type 0x%02x, want hello", payload[0])
	}
	if len(payload) < 8 {
		return errors.New("ruleserver: wire: short hello frame")
	}
	if magic := binary.LittleEndian.Uint32(payload[1:]); magic != wireMagic {
		return fmt.Errorf("ruleserver: wire: bad magic 0x%08x", magic)
	}
	if v := payload[5]; v != WireVersion {
		return fmt.Errorf("ruleserver: wire: protocol version %d, want %d", v, WireVersion)
	}
	nTenants := int(binary.LittleEndian.Uint16(payload[6:]))
	if nTenants == 0 || nTenants > 1<<12 {
		return fmt.Errorf("ruleserver: wire: tenant count %d out of range", nTenants)
	}
	off := 8
	c.shards = make([]*Server, nTenants)
	c.found = make([]bool, nTenants)
	c.slot = make([]int32, nTenants)
	for i := 0; i < nTenants; i++ {
		var key TenantKey
		var err error
		if key.Cluster, off, err = getString(payload, off); err != nil {
			return fmt.Errorf("ruleserver: wire: truncated hello tenant %d: %w", i, err)
		}
		if key.JobClass, off, err = getString(payload, off); err != nil {
			return fmt.Errorf("ruleserver: wire: truncated hello tenant %d: %w", i, err)
		}
		if key.MPIVer, off, err = getString(payload, off); err != nil {
			return fmt.Errorf("ruleserver: wire: truncated hello tenant %d: %w", i, err)
		}
		if srv, ok := reg.Tenant(key); ok {
			c.shards[i], c.found[i] = srv, true
		}
	}
	if off != len(payload) {
		return errors.New("ruleserver: wire: trailing bytes after hello tenants")
	}
	return nil
}

// helloAck builds the handshake response payload: protocol version,
// the server's collective names in wire-id order, and per-tenant found
// flags in hello order.
func (c *serverConn) helloAck() []byte {
	b := c.out[:0]
	b = append(b, frameHelloAck, WireVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(coll.NumCollectives))
	for i := 0; i < coll.NumCollectives; i++ {
		b = appendString(b, coll.Collective(i).String())
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.found)))
	for _, f := range c.found {
		if f {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	c.out = b
	return b
}

// handleBatch decodes one batch request, answers every query against
// its tenant's shard, and assembles the response frame (dictionary
// delta for never-before-sent algorithm names, then one fixed-width
// record per query) into a reused buffer — one Write syscall per
// batch, zero allocations once the dictionary is warm. Every record is
// validated before any is answered, so a rejected frame counts
// nothing. The answers are bracketed by one pair of clock reads, and
// each touched snapshot records the frame's service time per lookup
// once for all its lookups.
func (c *serverConn) handleBatch(payload []byte) ([]byte, error) {
	if payload[0] != frameBatchReq {
		return nil, fmt.Errorf("ruleserver: wire: frame type 0x%02x, want batch request", payload[0])
	}
	if len(payload) < 5 {
		return nil, errors.New("ruleserver: wire: short batch frame")
	}
	count := int(binary.LittleEndian.Uint32(payload[1:]))
	if count == 0 || count > MaxWireBatch {
		return nil, fmt.Errorf("ruleserver: wire: batch count %d out of range", count)
	}
	if len(payload) != 5+count*reqRecordBytes {
		return nil, fmt.Errorf("ruleserver: wire: batch payload %dB, want %dB for %d records",
			len(payload), 5+count*reqRecordBytes, count)
	}
	for off := 5; off < len(payload); off += reqRecordBytes {
		tenant, cid, _, _, _ := getReqRecord(payload, off)
		if int(tenant) >= len(c.shards) {
			return nil, fmt.Errorf("ruleserver: wire: tenant id %d out of range (hello negotiated %d)", tenant, len(c.shards))
		}
		if int(cid) >= coll.NumCollectives {
			return nil, fmt.Errorf("ruleserver: wire: collective id %d out of range", cid)
		}
	}
	c.lastCount = count
	c.dict = c.dict[:0]
	nDelta := 0
	c.rec = growBuf(c.rec, count*respRecordBytes)
	recOff := 0
	t0 := obs.NowNs()
	for off := 5; off < len(payload); off += reqRecordBytes {
		tenant, cid, nodes, ppn, msg := getReqRecord(payload, off)
		var id uint32
		if shard := c.shards[tenant]; shard != nil {
			ft := c.pin(tenant, shard)
			ft.lookups++
			if alg, ok := ft.sn.lookup(coll.Collective(cid), int(nodes), int(ppn), int(msg)); ok {
				var seen bool
				if id, seen = c.algID[alg]; !seen {
					c.nextAlg++
					id = c.nextAlg
					c.algID[alg] = id
					c.dict = binary.LittleEndian.AppendUint32(c.dict, id)
					c.dict = appendString(c.dict, alg)
					nDelta++
				}
			}
		}
		recOff = putRespRecord(c.rec, recOff, id)
	}
	c.recordFrame(t0, obs.NowNs()-t0)

	// Assemble: len | type | count | dictDeltaCount | dict | records.
	payloadLen := 1 + 4 + 4 + len(c.dict) + recOff
	c.out = growBuf(c.out, 4+payloadLen)
	binary.LittleEndian.PutUint32(c.out, uint32(payloadLen))
	c.out[4] = frameBatchResp
	binary.LittleEndian.PutUint32(c.out[5:], uint32(count))
	binary.LittleEndian.PutUint32(c.out[9:], uint32(nDelta))
	copy(c.out[13:], c.dict)
	copy(c.out[13+len(c.dict):], c.rec[:recOff])
	return c.out, nil
}

// pin returns the current frame's entry for tenant, loading the
// shard's snapshot on the tenant's first query in the frame; every
// later query of that tenant in the frame is answered from the same
// snapshot.
func (c *serverConn) pin(tenant uint32, shard *Server) *frameTenant {
	if s := c.slot[tenant]; s != 0 {
		return &c.touched[s-1]
	}
	c.touched = append(c.touched, frameTenant{tenant: tenant, sn: shard.cur.Load()})
	c.slot[tenant] = int32(len(c.touched))
	return &c.touched[len(c.touched)-1]
}

// recordFrame shares the frame's service time frameNs evenly over its
// lookups and records it once per touched snapshot, one sample per
// lookup, then resets the per-frame pins.
func (c *serverConn) recordFrame(t0, frameNs int64) {
	var lookups uint64
	for i := range c.touched {
		lookups += c.touched[i].lookups
	}
	for i := range c.touched {
		ft := &c.touched[i]
		ft.sn.lat.RecordN(t0, frameNs/int64(lookups), ft.lookups)
		c.slot[ft.tenant] = 0
		*ft = frameTenant{} // drop the snapshot pointer so a swapped-out epoch can be freed
	}
	c.touched = c.touched[:0]
}

// WireQuery is one client-side lookup: the tenant is an index into the
// key list negotiated at dial time.
type WireQuery struct {
	Tenant int
	Coll   coll.Collective
	Nodes  int
	PPN    int
	Msg    int
}

// WireResult is one answer. A miss has OK false and an empty Alg — a
// deployment-visible condition, not a protocol error.
type WireResult struct {
	Alg string
	OK  bool
}

// WireClient speaks the binary protocol over one connection. It is NOT
// safe for concurrent use: callers own one client per worker (the
// loadgen TCPTarget pools them). Batch encode/decode reuses the
// client's buffers, so the steady-state per-query cost is the fixed-
// width record codec plus a dictionary table index.
type WireClient struct {
	conn net.Conn
	br   io.Reader

	tenants []TenantKey
	collID  [coll.NumCollectives]int32 // local enum -> wire id; -1 if the server lacks it

	algs []string // wire alg id -> name; index 0 = miss sentinel

	in, out []byte
}

// DialWire connects to a wire server and performs the hello handshake
// for the given tenants (at least one; use DefaultTenant against a
// single-tenant server).
func DialWire(addr string, tenants []TenantKey) (*WireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewWireClient(conn, tenants)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewWireClient performs the hello handshake over an existing
// connection (tests drive it over net.Pipe).
func NewWireClient(conn net.Conn, tenants []TenantKey) (*WireClient, error) {
	if len(tenants) == 0 {
		return nil, errors.New("ruleserver: wire client needs at least one tenant")
	}
	if len(tenants) > 1<<12 {
		return nil, fmt.Errorf("ruleserver: wire client tenant count %d out of range", len(tenants))
	}
	c := &WireClient{
		conn:    conn,
		br:      newWireReader(conn),
		tenants: append([]TenantKey(nil), tenants...),
		algs:    make([]string, 1, 64),
	}
	hello := make([]byte, 0, 64)
	hello = append(hello, frameHello)
	hello = binary.LittleEndian.AppendUint32(hello, wireMagic)
	hello = append(hello, WireVersion)
	hello = binary.LittleEndian.AppendUint16(hello, uint16(len(tenants)))
	for _, k := range tenants {
		hello = appendString(hello, k.Cluster)
		hello = appendString(hello, k.JobClass)
		hello = appendString(hello, k.MPIVer)
	}
	if err := writeFrame(conn, hello); err != nil {
		return nil, err
	}
	ack, err := readFrame(c.br, &c.in)
	if err != nil {
		return nil, err
	}
	if err := c.parseHelloAck(ack); err != nil {
		return nil, err
	}
	return c, nil
}

// parseHelloAck consumes the handshake response: collective id table
// and per-tenant found flags. The client does not keep the flags: a
// tenant the registry lacked simply misses on every lookup.
func (c *WireClient) parseHelloAck(ack []byte) error {
	if ack[0] == frameError {
		msg, _, err := getString(ack, 1)
		if err != nil {
			return fmt.Errorf("ruleserver: wire: truncated error frame: %w", err)
		}
		return fmt.Errorf("ruleserver: wire: server rejected hello: %s", msg)
	}
	if ack[0] != frameHelloAck {
		return fmt.Errorf("ruleserver: wire: handshake frame type 0x%02x, want hello ack", ack[0])
	}
	if len(ack) < 4 {
		return errors.New("ruleserver: wire: short hello ack")
	}
	if v := ack[1]; v != WireVersion {
		return fmt.Errorf("ruleserver: wire: server protocol version %d, want %d", v, WireVersion)
	}
	for i := range c.collID {
		c.collID[i] = -1
	}
	nColl := int(binary.LittleEndian.Uint16(ack[2:]))
	off := 4
	for i := 0; i < nColl; i++ {
		name, next, err := getString(ack, off)
		if err != nil {
			return fmt.Errorf("ruleserver: wire: truncated hello ack collective %d: %w", i, err)
		}
		off = next
		if lc, err := coll.ParseCollective(name); err == nil {
			c.collID[lc] = int32(i)
		}
	}
	if off+2 > len(ack) {
		return errors.New("ruleserver: wire: truncated hello ack tenant flags")
	}
	nTenants := int(binary.LittleEndian.Uint16(ack[off:]))
	off += 2
	if nTenants != len(c.tenants) || off+nTenants != len(ack) {
		return errors.New("ruleserver: wire: hello ack tenant count mismatch")
	}
	return nil
}

// LookupBatch resolves len(qs) queries in one request frame — one
// Write, one pipelined response read — filling res in query order.
// res must be at least as long as qs. Any returned error is fatal to
// the connection (the server closes after an error frame); the caller
// should discard the client.
func (c *WireClient) LookupBatch(qs []WireQuery, res []WireResult) error {
	if len(qs) == 0 {
		return nil
	}
	if len(qs) > MaxWireBatch {
		return fmt.Errorf("ruleserver: wire: batch of %d exceeds max %d", len(qs), MaxWireBatch)
	}
	if len(res) < len(qs) {
		return errors.New("ruleserver: wire: result slice shorter than query slice")
	}
	payloadLen := 5 + len(qs)*reqRecordBytes
	c.out = growBuf(c.out, 4+payloadLen)
	binary.LittleEndian.PutUint32(c.out, uint32(payloadLen))
	c.out[4] = frameBatchReq
	binary.LittleEndian.PutUint32(c.out[5:], uint32(len(qs)))
	if err := c.encodeQueries(qs); err != nil {
		return err
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return err
	}
	resp, err := readFrame(c.br, &c.in)
	if err != nil {
		return err
	}
	return c.decodeBatchResponse(resp, res)
}

// encodeQueries validates and encodes qs into the prepared request
// buffer. Validation failures are client bugs (unknown collective,
// negative or over-u32 coordinates) and poison nothing: the frame is
// simply not sent.
func (c *WireClient) encodeQueries(qs []WireQuery) error {
	off := 9
	for i := range qs {
		q := &qs[i]
		if q.Tenant < 0 || q.Tenant >= len(c.tenants) {
			return fmt.Errorf("ruleserver: wire: query tenant %d out of range [0,%d)", q.Tenant, len(c.tenants))
		}
		if q.Coll < 0 || int(q.Coll) >= coll.NumCollectives || c.collID[q.Coll] < 0 {
			return fmt.Errorf("ruleserver: wire: collective %v not served by peer", q.Coll)
		}
		if q.Nodes < 0 || q.PPN < 0 || q.Msg < 0 ||
			q.Nodes > 1<<31 || q.PPN > 1<<31 || q.Msg > 1<<31 {
			return fmt.Errorf("ruleserver: wire: query coordinates out of u32 range: %+v", *q)
		}
		off = putReqRecord(c.out, off, uint32(q.Tenant), uint32(c.collID[q.Coll]),
			uint32(q.Nodes), uint32(q.PPN), uint32(q.Msg))
	}
	return nil
}

// decodeBatchResponse applies the dictionary delta and fills res from
// the fixed-width records.
func (c *WireClient) decodeBatchResponse(resp []byte, res []WireResult) error {
	if resp[0] == frameError {
		msg, _, err := getString(resp, 1)
		if err != nil {
			return fmt.Errorf("ruleserver: wire: truncated error frame: %w", err)
		}
		return fmt.Errorf("ruleserver: wire: server error: %s", msg)
	}
	if resp[0] != frameBatchResp {
		return fmt.Errorf("ruleserver: wire: frame type 0x%02x, want batch response", resp[0])
	}
	if len(resp) < 9 {
		return errors.New("ruleserver: wire: short batch response")
	}
	count := int(binary.LittleEndian.Uint32(resp[1:]))
	nDict := int(binary.LittleEndian.Uint32(resp[5:]))
	off := 9
	for i := 0; i < nDict; i++ {
		if off+4 > len(resp) {
			return io.ErrUnexpectedEOF
		}
		id := binary.LittleEndian.Uint32(resp[off:])
		off += 4
		name, next, err := getString(resp, off)
		if err != nil {
			return fmt.Errorf("ruleserver: wire: truncated dictionary entry: %w", err)
		}
		off = next
		if int(id) != len(c.algs) {
			return fmt.Errorf("ruleserver: wire: dictionary id %d, want next dense id %d", id, len(c.algs))
		}
		c.algs = append(c.algs, name)
	}
	if count > len(res) || len(resp) != off+count*respRecordBytes {
		return fmt.Errorf("ruleserver: wire: batch response count %d does not match frame length", count)
	}
	for i := 0; i < count; i++ {
		id := getRespRecord(resp, off)
		off += respRecordBytes
		if int(id) >= len(c.algs) {
			return fmt.Errorf("ruleserver: wire: response algorithm id %d beyond dictionary (%d entries)", id, len(c.algs)-1)
		}
		if id == 0 {
			res[i] = WireResult{}
		} else {
			res[i] = WireResult{Alg: c.algs[id], OK: true}
		}
	}
	return nil
}

// Lookup resolves one query (a batch of one).
func (c *WireClient) Lookup(q WireQuery) (string, bool, error) {
	var one [1]WireQuery
	var res [1]WireResult
	one[0] = q
	if err := c.LookupBatch(one[:], res[:]); err != nil {
		return "", false, err
	}
	return res[0].Alg, res[0].OK, nil
}

// Close closes the underlying connection.
func (c *WireClient) Close() error { return c.conn.Close() }
