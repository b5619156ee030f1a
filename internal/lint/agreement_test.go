package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// zeroAllocManifest is the project's declared set of allocation-free
// hot paths: for each package, every function carrying an
// //acclaim:zeroalloc annotation. The static analyzer scans exactly
// the annotated set; the runtime testing.AllocsPerRun gates in each
// package's tests pin the same functions at execution time. This test
// keeps the three views — manifest, annotations, runtime gates — from
// drifting apart: adding or dropping an annotation without updating
// the manifest (and thinking about the runtime gate) is a test
// failure, not a silent coverage change.
var zeroAllocManifest = map[string][]string{
	"internal/obs": {
		"Counter.Add",
		"Counter.Inc",
		"Gauge.Add",
		"Gauge.Set",
		"HDRHistogram.Observe",
		"HDRHistogram.ObserveNs",
		"HDRRecorder.Record",
		"HDRRecorder.RecordN",
		"NowNs",
		"hdrIndex",
		"nopRecorder.EndSpan",
		"nopRecorder.SetAttr",
		"nopRecorder.StartSpan",
	},
	"internal/ruleserver": {
		"Index.Lookup",
		"Index.LookupName",
		"Server.Lookup",
		"Server.LookupName",
		"getReqRecord",
		"getRespRecord",
		"putReqRecord",
		"putRespRecord",
		"snapshot.lookup",
		"tableIndex.lookup",
		"tableIndex.walk",
	},
	"internal/core": {
		"tunerMetrics.endRound",
	},
	"internal/forest": {
		"Kernel.Predict",
		"Kernel.predictBlock",
		"Kernel.scoreBlock",
		"Kernel.walk",
		"Kernel.walkLevels",
		"trainer.buildOrders",
		"trainer.markLive",
		"trainer.scanFeature",
		"trainer.stablePartition",
	},
	"internal/stats": {
		"Source.Seed",
		"Source.Uint64",
	},
	"internal/simmpi": {
		"sched.put",
		"sched.take",
	},
}

// annotatedFuncs parses one package directory (no type-checking
// needed) and returns the "Recv.Name" keys of every function whose
// doc comment carries //acclaim:zeroalloc.
func annotatedFuncs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fd.Doc.List {
				if m := directiveRe.FindStringSubmatch(c.Text); m != nil && m[1] == "zeroalloc" {
					annotated = true
				}
			}
			if !annotated {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				rt := fd.Recv.List[0].Type
				if star, ok := rt.(*ast.StarExpr); ok {
					rt = star.X
				}
				if id, ok := rt.(*ast.Ident); ok {
					key = id.Name + "." + key
				}
			}
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// TestZeroAllocAnnotationAgreement asserts the manifest above matches
// the //acclaim:zeroalloc annotations actually present in each
// package, that no package outside the manifest carries annotations,
// and that every manifest package has a runtime AllocsPerRun gate in
// its tests.
func TestZeroAllocAnnotationAgreement(t *testing.T) {
	root := "../.."

	for pkg, want := range zeroAllocManifest {
		got := annotatedFuncs(t, filepath.Join(root, filepath.FromSlash(pkg)))
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if strings.Join(got, ",") != strings.Join(sorted, ",") {
			t.Errorf("%s: annotated functions = %v, manifest = %v", pkg, got, sorted)
		}
		if !packageTestsMention(t, filepath.Join(root, filepath.FromSlash(pkg)), "AllocsPerRun") {
			t.Errorf("%s: no testing.AllocsPerRun gate found in package tests; the zeroalloc annotations there are unverified at runtime", pkg)
		}
	}

	// No annotations outside the manifest: parse every package
	// directory in the module (skipping testdata fixtures) and require
	// that any directory with annotated functions appears above.
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		if _, ok := zeroAllocManifest[rel]; ok {
			continue
		}
		if got := annotatedFuncs(t, dir); len(got) > 0 {
			t.Errorf("package %s carries //acclaim:zeroalloc annotations %v but is not in the manifest", rel, got)
		}
	}
}

// packageTestsMention reports whether any _test.go file in dir
// contains the given substring.
func packageTestsMention(t *testing.T, dir, substr string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), substr) {
			return true
		}
	}
	return false
}
