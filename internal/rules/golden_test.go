package rules

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// update regenerates the golden files under testdata/rules from the
// fixture constructors below:
//
//	go test ./internal/rules/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden rule files")

// goldenDir is the shared rule-file corpus at the repository root
// (testdata/rules), used by these tests and as a ready-made input for
// cmd/acclaim-serve examples.
func goldenDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "testdata", "rules"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// goldenFixtures maps golden file names to constructors. The .json
// golden is the Write serialization of the constructed file; the
// .pruned.json golden is the serialization after Prune on every table.
var goldenFixtures = map[string]func() *File{
	"mpich_bcast":    mpichBcastFixture,
	"tuned_multi":    tunedMultiFixture,
	"tuned_scenario": tunedScenarioFixture,
}

// mpichBcastFixture mirrors the shape of an MPICH json selection file
// for a single collective: power-of-two crossovers, a redundant pair of
// consecutive rules (so pruning has work to do), and full catch-alls.
func mpichBcastFixture() *File {
	f := NewFile("mpich-ch4-ofi")
	f.Comment = "golden fixture: MPICH-style bcast selection"
	f.Tables["bcast"] = &Table{
		Collective: "bcast",
		Buckets: []NodeBucket{
			{MaxNodes: 16, PPNs: []PPNBucket{
				{MaxPPN: 8, Rules: []MsgRule{
					{MaxMsg: 2048, Alg: "binomial"},
					{MaxMsg: 65536, Alg: "binomial"}, // redundant: merges on Prune
					{MaxMsg: Unbounded, Alg: "scatter_ring_allgather"},
				}},
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 16384, Alg: "binomial"},
					{MaxMsg: Unbounded, Alg: "scatter_recursive_doubling_allgather"},
				}},
			}},
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 512, Alg: "binomial"},
					{MaxMsg: Unbounded, Alg: "scatter_ring_allgather"},
				}},
			}},
		},
	}
	return f
}

// tunedMultiFixture is a multi-collective file of the shape ACCLAiM
// emits after a tuning run, including adjacent ppn buckets with
// identical contents (so bucket-level pruning has work to do).
func tunedMultiFixture() *File {
	f := NewFile("cluster-a100")
	f.Comment = "golden fixture: multi-collective tuned output"
	same := []MsgRule{
		{MaxMsg: 1024, Alg: "recursive_doubling"},
		{MaxMsg: Unbounded, Alg: "ring"},
	}
	f.Tables["allreduce"] = &Table{
		Collective: "allreduce",
		Buckets: []NodeBucket{
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: 4, Rules: append([]MsgRule(nil), same...)},
				{MaxPPN: 16, Rules: append([]MsgRule(nil), same...)}, // merges on Prune
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 4096, Alg: "recursive_doubling"},
					{MaxMsg: Unbounded, Alg: "reduce_scatter_allgather"},
				}},
			}},
		},
	}
	f.Tables["reduce"] = &Table{
		Collective: "reduce",
		Buckets: []NodeBucket{
			{MaxNodes: 32, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 8192, Alg: "binomial"},
					{MaxMsg: Unbounded, Alg: "reduce_scatter_gather"},
				}},
			}},
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: Unbounded, Alg: "binomial"},
				}},
			}},
		},
	}
	return f
}

// tunedScenarioFixture covers the scenario-diversity collectives
// (alltoall, reduce_scatter, gather, scatter) with their registered
// algorithm names, shaped like a tuned fat-tree run: small-message
// brucks/binomial regimes crossing over to pairwise/linear, with
// redundant rules and duplicate ppn buckets so pruning has work to do.
func tunedScenarioFixture() *File {
	f := NewFile("fattree-sim")
	f.Comment = "golden fixture: scenario-diversity collectives on fat-tree"
	f.Tables["alltoall"] = &Table{
		Collective: "alltoall",
		Buckets: []NodeBucket{
			{MaxNodes: 16, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 256, Alg: "brucks"},
					{MaxMsg: 32768, Alg: "scattered"},
					{MaxMsg: Unbounded, Alg: "pairwise"},
				}},
			}},
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 1024, Alg: "brucks"},
					{MaxMsg: 4096, Alg: "brucks"}, // redundant: merges on Prune
					{MaxMsg: Unbounded, Alg: "pairwise"},
				}},
			}},
		},
	}
	f.Tables["reduce_scatter"] = &Table{
		Collective: "reduce_scatter",
		Buckets: []NodeBucket{
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 524288, Alg: "recursive_halving"},
					{MaxMsg: Unbounded, Alg: "pairwise_exchange"},
				}},
			}},
		},
	}
	sameRooted := []MsgRule{
		{MaxMsg: 8192, Alg: "binomial"},
		{MaxMsg: Unbounded, Alg: "linear"},
	}
	f.Tables["gather"] = &Table{
		Collective: "gather",
		Buckets: []NodeBucket{
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: 8, Rules: append([]MsgRule(nil), sameRooted...)},
				{MaxPPN: Unbounded, Rules: append([]MsgRule(nil), sameRooted...)}, // merges on Prune
			}},
		},
	}
	f.Tables["scatter"] = &Table{
		Collective: "scatter",
		Buckets: []NodeBucket{
			{MaxNodes: 32, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: 2048, Alg: "binomial"},
					{MaxMsg: Unbounded, Alg: "linear"},
				}},
			}},
			{MaxNodes: Unbounded, PPNs: []PPNBucket{
				{MaxPPN: Unbounded, Rules: []MsgRule{
					{MaxMsg: Unbounded, Alg: "binomial"},
				}},
			}},
		},
	}
	return f
}

func marshal(t *testing.T, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			filepath.Base(path), got, want)
	}
}

// TestGoldenRoundTrip pins the on-disk JSON format: the serialization
// of each fixture must match its golden byte-for-byte, read(Write(f))
// must reproduce the file deep-equal, and re-serializing the read-back
// copy must reproduce the golden again (so Read loses nothing Write
// needs).
func TestGoldenRoundTrip(t *testing.T) {
	dir := goldenDir(t)
	for name, mk := range goldenFixtures {
		t.Run(name, func(t *testing.T) {
			f := mk()
			raw := marshal(t, f)
			compareGolden(t, filepath.Join(dir, name+".json"), raw)

			back, err := read(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("read(Write(f)): %v", err)
			}
			if !reflect.DeepEqual(f, back) {
				t.Errorf("read(Write(f)) != f\ngot:  %+v\nwant: %+v", back, f)
			}
			if again := marshal(t, back); !bytes.Equal(raw, again) {
				t.Errorf("Write(read(Write(f))) not byte-stable")
			}
		})
	}
}

// TestGoldenPrune pins Prune's output format: pruning each fixture must
// produce exactly the .pruned.json golden, the pruned file must stay
// valid, and pruning must be idempotent.
func TestGoldenPrune(t *testing.T) {
	dir := goldenDir(t)
	for name, mk := range goldenFixtures {
		t.Run(name, func(t *testing.T) {
			f := mk()
			before := 0
			for _, tab := range f.Tables {
				before += tab.NumRules()
			}
			for _, tab := range f.Tables {
				tab.Prune()
			}
			after := 0
			for _, tab := range f.Tables {
				after += tab.NumRules()
			}
			if after >= before {
				t.Errorf("fixture has no redundancy for Prune to remove (%d -> %d rules)", before, after)
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("pruned file invalid: %v", err)
			}
			compareGolden(t, filepath.Join(dir, name+".pruned.json"), marshal(t, f))

			for _, tab := range f.Tables {
				tab.Prune()
			}
			compareGolden(t, filepath.Join(dir, name+".pruned.json"), marshal(t, f))
		})
	}
}

// TestGoldenFilesReadable proves the checked-in goldens themselves pass
// Read's validation — they double as example inputs for
// cmd/acclaim-serve, so they must never rot.
func TestGoldenFilesReadable(t *testing.T) {
	dir := goldenDir(t)
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 4 {
		t.Fatalf("expected at least 4 golden files in %s, found %d", dir, len(matches))
	}
	for _, path := range matches {
		f, err := ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if len(f.Tables) == 0 {
			t.Errorf("%s: no tables", filepath.Base(path))
		}
	}
}

// FuzzReadRoundTrip feeds arbitrary bytes to Read; whenever they parse
// as a valid selection file, serializing and re-reading must be
// lossless and byte-stable. Seeded with the golden corpus.
func FuzzReadRoundTrip(f *testing.F) {
	dir, err := filepath.Abs(filepath.Join("..", "..", "testdata", "rules"))
	if err != nil {
		f.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	for _, path := range matches {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"version":1,"tables":{}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		file, err := read(bytes.NewReader(raw))
		if err != nil {
			return // invalid inputs just need to be rejected cleanly
		}
		var buf bytes.Buffer
		if err := file.Write(&buf); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		back, err := read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read(Write(f)) failed for accepted input: %v", err)
		}
		if !reflect.DeepEqual(file, back) {
			t.Fatalf("round trip not lossless\ngot:  %+v\nwant: %+v", back, file)
		}
		var again bytes.Buffer
		if err := back.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("serialization not byte-stable")
		}
	})
}
