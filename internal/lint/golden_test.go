package lint

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtures are the golden packages under testdata/src, one per
// analyzer plus directive hygiene. Expectations live in the fixtures
// as `want` comments holding backquoted regexps:
//
//	expr // want `regexp` `another`
//	// want `regexp`        (a standalone want line covers the next line)
//
// Each regexp is matched against "[check] message" of a diagnostic on
// that line; every diagnostic must be wanted and every want matched.
var fixtures = []string{
	"determinism", "zeroalloc", "lockcheck", "metricname", "directive",
	"frozen", "goroutinelife",
}

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	patterns := make([]string, len(fixtures))
	for i, f := range fixtures {
		patterns[i] = "internal/lint/testdata/src/" + f
	}
	pkgs, err := Load("../..", patterns...)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != len(fixtures) {
		t.Fatalf("loaded %d fixture packages, want %d", len(pkgs), len(fixtures))
	}
	return pkgs
}

// fixtureAnalyzers is the default suite with the determinism target
// list pointed at the fixture package instead of the real tuning
// packages.
func fixtureAnalyzers() []*Analyzer { return suite([]string{"src/determinism"}) }

type wantKey struct {
	file string
	line int
}

var wantRe = regexp.MustCompile("`([^`]+)`")

// parseWants scans a fixture source file for want comments and returns
// line -> regexps, keyed by the repo-relative path diagnostics use.
func parseWants(t *testing.T, relPath string) map[wantKey][]*regexp.Regexp {
	t.Helper()
	f, err := os.Open(filepath.Join("../..", filepath.FromSlash(relPath)))
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()

	wants := map[wantKey][]*regexp.Regexp{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		i := strings.Index(text, "// want ")
		if i < 0 {
			continue
		}
		target := line
		if strings.HasPrefix(strings.TrimSpace(text), "// want ") {
			target = line + 1 // standalone want line covers the next line
		}
		for _, m := range wantRe.FindAllStringSubmatch(text[i:], -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", relPath, line, m[1], err)
			}
			wants[wantKey{relPath, target}] = append(wants[wantKey{relPath, target}], re)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestFixtureGolden runs the full suite over the fixture corpus and
// checks the diagnostics against the in-source want comments, both
// directions: no unexpected finding, no unmatched expectation.
func TestFixtureGolden(t *testing.T) {
	pkgs := loadFixtures(t)
	got := Run(pkgs, fixtureAnalyzers())

	wants := map[wantKey][]*regexp.Regexp{}
	for _, fix := range fixtures {
		rel := "internal/lint/testdata/src/" + fix + "/" + fix + ".go"
		for k, v := range parseWants(t, rel) {
			wants[k] = append(wants[k], v...)
		}
	}

	matched := map[wantKey][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range got {
		k := wantKey{d.File, d.Line}
		text := "[" + d.Check + "] " + d.Message
		found := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(text) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// TestFixtureJSON checks the -json output contract the CI artifact
// depends on: an array of objects with exactly the five documented
// keys, sorted by position, and `[]` (never null) when clean.
func TestFixtureJSON(t *testing.T) {
	pkgs := loadFixtures(t)
	got := Run(pkgs, fixtureAnalyzers())
	if len(got) == 0 {
		t.Fatal("fixture corpus produced no diagnostics")
	}

	out, err := MarshalDiagnostics(got)
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(out, &raw); err != nil {
		t.Fatalf("-json output is not a JSON array: %v", err)
	}
	if len(raw) != len(got) {
		t.Fatalf("marshalled %d diagnostics, want %d", len(raw), len(got))
	}
	wantKeys := []string{"check", "col", "file", "line", "message"}
	for i, obj := range raw {
		if len(obj) != len(wantKeys) {
			t.Errorf("diagnostic %d has %d keys, want %d (%v)", i, len(obj), len(wantKeys), wantKeys)
		}
		for _, k := range wantKeys {
			if _, ok := obj[k]; !ok {
				t.Errorf("diagnostic %d missing key %q", i, k)
			}
		}
	}

	var round []Diagnostic
	if err := json.Unmarshal(out, &round); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if round[i] != got[i] {
			t.Errorf("diagnostic %d did not round-trip: %+v != %+v", i, round[i], got[i])
		}
	}

	empty, err := MarshalDiagnostics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(empty)) != "[]" {
		t.Errorf("MarshalDiagnostics(nil) = %q, want []", empty)
	}
}

// TestFixtureSuppression pins the directive machinery itself: the
// fixtures contain allow directives whose covered lines would
// otherwise be findings, so re-running with suppression disabled (by
// clearing the parsed allows) must strictly grow the finding count.
func TestFixtureSuppression(t *testing.T) {
	pkgs := loadFixtures(t)
	before := len(Run(pkgs, fixtureAnalyzers()))
	for _, p := range pkgs {
		p.allows = nil
	}
	after := len(Run(pkgs, fixtureAnalyzers()))
	if after <= before {
		t.Errorf("clearing //acclaim:allow directives kept findings at %d (was %d); suppression is not doing anything", after, before)
	}
}
