package ruleserver_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"acclaim/internal/coll"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// fixtureFile is a small hand-written file covering two collectives.
func fixtureFile() *rules.File {
	f := rules.NewFile("fixture")
	f.Tables["bcast"] = &rules.Table{
		Collective: "bcast",
		Buckets: []rules.NodeBucket{
			{MaxNodes: 8, PPNs: []rules.PPNBucket{
				{MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{
					{MaxMsg: 1024, Alg: "binomial"},
					{MaxMsg: rules.Unbounded, Alg: "scatter_ring_allgather"},
				}},
			}},
			{MaxNodes: rules.Unbounded, PPNs: []rules.PPNBucket{
				{MaxPPN: 4, Rules: []rules.MsgRule{{MaxMsg: rules.Unbounded, Alg: "binomial"}}},
				{MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{
					{MaxMsg: 64, Alg: "binomial"},
					{MaxMsg: rules.Unbounded, Alg: "scatter_recursive_doubling_allgather"},
				}},
			}},
		},
	}
	f.Tables["reduce"] = &rules.Table{
		Collective: "reduce",
		Buckets: []rules.NodeBucket{
			{MaxNodes: rules.Unbounded, PPNs: []rules.PPNBucket{
				{MaxPPN: rules.Unbounded, Rules: []rules.MsgRule{
					{MaxMsg: 2048, Alg: "binomial"},
					{MaxMsg: rules.Unbounded, Alg: "scatter_gather"},
				}},
			}},
		},
	}
	return f
}

// diffTable asserts the index answers byte-identically to the nested
// table walk for the given query, including agreeing on misses.
func diffTable(t *testing.T, ix *ruleserver.Index, tab *rules.Table, nodes, ppn, msg int) {
	t.Helper()
	want, wantErr := tab.Select(nodes, ppn, msg)
	got, ok := ix.LookupName(tab.Collective, nodes, ppn, msg)
	if wantErr != nil {
		if ok {
			t.Fatalf("(%d,%d,%d): index hit %q where table errors: %v", nodes, ppn, msg, got, wantErr)
		}
		return
	}
	if !ok {
		t.Fatalf("(%d,%d,%d): index missed where table selects %q", nodes, ppn, msg, want)
	}
	if got != want {
		t.Fatalf("(%d,%d,%d): index = %q, table = %q", nodes, ppn, msg, got, want)
	}
}

func TestIndexMatchesFixture(t *testing.T) {
	f := fixtureFile()
	ix, err := ruleserver.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range f.Tables {
		for _, nodes := range []int{1, 2, 7, 8, 9, 100} {
			for _, ppn := range []int{1, 3, 4, 5, 64} {
				for _, msg := range []int{1, 63, 64, 65, 1024, 1025, 2048, 2049, 1 << 30} {
					diffTable(t, ix, tab, nodes, ppn, msg)
				}
			}
		}
	}
	if n := ix.NumRules(); n != 7 {
		t.Errorf("NumRules = %d, want 7", n)
	}
	if got := len(ix.Tables()); got != 2 {
		t.Errorf("Tables = %d, want 2", got)
	}
}

func TestIndexEnumAndNameAgree(t *testing.T) {
	ix, err := ruleserver.Compile(fixtureFile())
	if err != nil {
		t.Fatal(err)
	}
	byEnum, ok1 := ix.Lookup(coll.Bcast, 16, 8, 100)
	byName, ok2 := ix.LookupName("bcast", 16, 8, 100)
	if !ok1 || !ok2 || byEnum != byName {
		t.Fatalf("enum path (%q,%v) != name path (%q,%v)", byEnum, ok1, byName, ok2)
	}
	if _, ok := ix.Lookup(coll.Allgather, 2, 1, 8); ok {
		t.Error("hit for a collective with no table")
	}
	if _, ok := ix.Lookup(coll.Collective(-1), 2, 1, 8); ok {
		t.Error("hit for out-of-range collective")
	}
	if _, ok := ix.LookupName("alltoall", 2, 1, 8); ok {
		t.Error("hit for unknown table name")
	}
}

// TestDifferentialGenerated is the in-tree (non-fuzz) form of the
// differential property over many generated tables.
func TestDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		f := genFile(rng, "bcast")
		tab := f.Tables["bcast"]
		ix, err := ruleserver.Compile(f)
		if err != nil {
			t.Fatalf("generated table invalid: %v", err)
		}
		nodesP, ppnP, msgP := thresholdProbes(tab)
		for i := 0; i < 50; i++ {
			diffTable(t, ix, tab,
				int(nodesP[rng.Intn(len(nodesP))]),
				int(ppnP[rng.Intn(len(ppnP))]),
				int(msgP[rng.Intn(len(msgP))]))
		}
		for i := 0; i < 50; i++ {
			diffTable(t, ix, tab, rng.Intn(1<<12), rng.Intn(1<<8), rng.Intn(1<<24))
		}
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := ruleserver.Compile(nil); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := ruleserver.Compile(rules.NewFile("empty")); err == nil {
		t.Error("empty file accepted")
	}
	f := fixtureFile()
	f.Tables["bcast"].Buckets[1].MaxNodes = 100 // drop the catch-all
	if _, err := ruleserver.Compile(f); err == nil {
		t.Error("incomplete table accepted")
	}
}

func TestServerSwapAndStats(t *testing.T) {
	srv := ruleserver.NewRegistry().Ensure(ruleserver.DefaultTenant)
	if _, ok := srv.Lookup(coll.Bcast, 4, 2, 64); ok {
		t.Fatal("empty server answered a lookup")
	}
	if err := srv.Swap(fixtureFile()); err != nil {
		t.Fatal(err)
	}
	// 512 lookups: every one is counted and latency-recorded.
	for i := 0; i < 512; i++ {
		if _, ok := srv.Lookup(coll.Bcast, 4, 2, 64); !ok {
			t.Fatal("lookup missed after swap")
		}
	}
	if _, ok := srv.Lookup(coll.Allgather, 4, 2, 64); ok {
		t.Fatal("hit for untuned collective")
	}
	st := srv.Stats()
	if st.Version != 1 || st.Swaps != 1 {
		t.Errorf("version/swaps = %d/%d, want 1/1", st.Version, st.Swaps)
	}
	if st.Hits != 512 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 512/1", st.Hits, st.Misses)
	}
	if st.Tables != 2 || st.Rules != 7 {
		t.Errorf("tables/rules = %d/%d, want 2/7", st.Tables, st.Rules)
	}
	if st.P50 <= 0 || st.P99 < st.P50 || st.P999 < st.P99 {
		t.Errorf("latency quantiles not positive/monotone: p50=%v p99=%v p999=%v", st.P50, st.P99, st.P999)
	}
	wantPer := []ruleserver.CollStats{
		{Collective: "allgather", Lookups: 1, Misses: 1},
		{Collective: "bcast", Lookups: 512, Misses: 0},
	}
	if len(st.PerCollective) != len(wantPer) {
		t.Fatalf("PerCollective = %+v, want %+v", st.PerCollective, wantPer)
	}
	for i, want := range wantPer {
		if st.PerCollective[i] != want {
			t.Errorf("PerCollective[%d] = %+v, want %+v", i, st.PerCollective[i], want)
		}
	}

	// A failed swap must leave the old snapshot (and its counters) serving.
	if err := srv.Swap(rules.NewFile("bad")); err == nil {
		t.Fatal("invalid swap accepted")
	}
	if got := srv.Stats(); got.Version != 1 || got.Hits != st.Hits {
		t.Errorf("failed swap disturbed the serving snapshot: %+v", got)
	}

	// A successful swap starts a fresh per-snapshot ledger.
	if err := srv.Swap(fixtureFile()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats(); got.Version != 2 || got.Swaps != 2 || got.Hits != 0 {
		t.Errorf("swap did not publish a fresh snapshot: %+v", got)
	}
}

func TestServerLoadFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := fixtureFile().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	srv := ruleserver.NewRegistry().Ensure(ruleserver.DefaultTenant)
	if err := srv.Load(path); err != nil {
		t.Fatal(err)
	}
	if alg, ok := srv.Lookup(coll.Reduce, 32, 16, 1<<20); !ok || alg != "scatter_gather" {
		t.Fatalf("Lookup after Load = %q, %v", alg, ok)
	}
	if err := srv.Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLookupZeroAlloc pins the hot path at zero allocations per call —
// the property the flattened index exists to provide. AllocsPerRun is
// deterministic, so this is a hard tier-1 gate, stronger than the
// benchguard baseline.
func TestLookupZeroAlloc(t *testing.T) {
	srv, err := ruleserver.NewFromFile(fixtureFile())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := srv.Lookup(coll.Bcast, 16, 8, 4096); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocates %.1f objects per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if _, ok := srv.LookupName("reduce", 16, 8, 4096); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("LookupName allocates %.1f objects per call, want 0", allocs)
	}
}

// TestConcurrentSwap hammers lock-free readers while a writer hot-swaps
// snapshots in a loop. Run under -race (the CI race job does) this is
// the proof that readers never observe a torn snapshot: every lookup
// must land in one generation's algorithm set, and hits never fail.
func TestConcurrentSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := make([]string, 0, coll.NumCollectives)
	for _, c := range coll.Collectives() {
		names = append(names, c.String())
	}
	fileA := genFile(rng, names...)
	fileB := genFile(rng, names...)

	valid := map[string]bool{}
	for _, f := range []*rules.File{fileA, fileB} {
		for _, tab := range f.Tables {
			for _, nb := range tab.Buckets {
				for _, pb := range nb.PPNs {
					for _, r := range pb.Rules {
						valid[r.Alg] = true
					}
				}
			}
		}
	}

	srv, err := ruleserver.NewFromFile(fileA)
	if err != nil {
		t.Fatal(err)
	}

	swaps := 400
	readers := 8
	if testing.Short() {
		swaps = 100
		readers = 4
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			colls := coll.Collectives()
			for {
				select {
				case <-done:
					return
				default:
				}
				c := colls[rng.Intn(len(colls))]
				alg, ok := srv.Lookup(c, 1+rng.Intn(256), 1+rng.Intn(64), 1+rng.Intn(1<<22))
				if !ok {
					errc <- errOf("lookup missed during swap for %v", c)
					return
				}
				if !valid[alg] {
					errc <- errOf("lookup returned %q, not in either snapshot", alg)
					return
				}
				// Stats must always be readable mid-swap.
				if st := srv.Stats(); st.Tables != coll.NumCollectives {
					errc <- errOf("stats saw %d tables", st.Tables)
					return
				}
			}
		}(int64(g) + 100)
	}

	for i := 0; i < swaps; i++ {
		f := fileA
		if i%2 == 0 {
			f = fileB
		}
		if err := srv.Swap(f); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if st := srv.Stats(); st.Swaps != uint64(swaps)+1 {
		t.Errorf("swaps = %d, want %d", st.Swaps, swaps+1)
	}
}

func errOf(format string, args ...any) error { return fmt.Errorf(format, args...) }
