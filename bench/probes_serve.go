package main

import (
	"net"
	"time"

	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// probeServe times the serving layers one by one on the run's own
// queries: the compiled index alone, the counted and latency-recorded
// registry lookup around it, one frame round trip without a kernel
// socket (net.Pipe) and with one (loopback TCP), and the pieces of a
// reload. Single-threaded, after the timed section.
func probeServe(s *served, vals map[string]float64) error {
	pool := s.pools[0]
	key := s.keys[0]
	shard, _ := s.reg.Tenant(key)
	idx := shard.Index()

	const lookups = 1 << 20
	hits := 0
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		q := &pool.qs[i&(poolQueries-1)]
		if _, ok := idx.Lookup(q.Coll, q.Nodes, q.PPN, q.Msg); ok {
			hits++
		}
	}
	indexNs := float64(time.Since(t0)) / lookups
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		q := &pool.qs[i&(poolQueries-1)]
		if _, ok := s.reg.Lookup(key, q.Coll, q.Nodes, q.PPN, q.Msg); ok {
			hits++
		}
	}
	registryNs := float64(time.Since(t0)) / lookups
	if hits != 2*lookups {
		vals["ruleserver.misses_total"] += float64(2*lookups - hits)
	}
	vals["ruleserver.index_lookup_ns"] = indexNs
	vals["ruleserver.registry_lookup_ns"] = registryNs
	vals["ruleserver.record_overhead_ns"] = registryNs - indexNs

	// One frame round trip, the workload's frame size, one connection.
	rtt := func(cl *ruleserver.WireClient) (float64, error) {
		res := make([]ruleserver.WireResult, s.shape.frame)
		var us []float64
		for i := 0; i < 4000; i++ {
			off := (i * s.shape.frame) & (poolQueries - 1)
			t0 := time.Now()
			if err := cl.LookupBatch(pool.qs[off:off+s.shape.frame], res); err != nil {
				return 0, err
			}
			us = append(us, 1e6*time.Since(t0).Seconds())
		}
		return median(us[len(us)/4:]), nil // the first quarter warms the path
	}
	clientEnd, serverEnd := net.Pipe()
	served := make(chan struct{})
	//acclaim:goroutine-owner ServeConn returns when pipeClient.Close below closes its peer; served is then closed
	go func() { s.ws.ServeConn(serverEnd); close(served) }()
	pipeClient, err := ruleserver.NewWireClient(clientEnd, s.keys)
	if err != nil {
		clientEnd.Close()
		<-served
		return err
	}
	pipeUs, err := rtt(pipeClient)
	pipeClient.Close()
	<-served
	if err != nil {
		return err
	}
	tcpUs, err := rtt(s.clients[0])
	if err != nil {
		return err
	}
	vals["ruleserver.wire_pipe_rtt_us"] = pipeUs
	vals["ruleserver.wire_tcp_rtt_us"] = tcpUs
	vals["ruleserver.wire_socket_us"] = tcpUs - pipeUs // computed, not measured

	// The pieces of Registry.Load, on a registry of their own.
	var readUs, compileUs, swapUs []float64
	scratch := ruleserver.NewRegistry()
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		f, err := rules.ReadFile(s.pathA)
		if err != nil {
			return err
		}
		readUs = append(readUs, 1e6*time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := ruleserver.Compile(f); err != nil {
			return err
		}
		compileUs = append(compileUs, 1e6*time.Since(t0).Seconds())
		t0 = time.Now()
		if err := scratch.Swap(key, f); err != nil {
			return err
		}
		swapUs = append(swapUs, 1e6*time.Since(t0).Seconds()) // compile + publish
	}
	vals["rules.read_us"] = median(readUs)
	vals["ruleserver.compile_us"] = median(compileUs)
	vals["ruleserver.swap_us"] = median(swapUs)
	return nil
}
