// Package lint is acclaim-lint's analysis engine: a stdlib-only
// static-analysis driver (go/parser + go/types, no external modules)
// enforcing the project invariants the compiler cannot check and the
// runtime gates only catch when the right test happens to run:
//
//   - determinism: the tuning/decision packages must be bit-identical
//     across runs — no wall-clock reads, no global math/rand, no map
//     iteration feeding ordered output (see determinism.go).
//   - zeroalloc: functions annotated `//acclaim:zeroalloc` must contain
//     no syntactic allocation sites, mirroring the runtime
//     testing.AllocsPerRun gates (see zeroalloc.go).
//   - lockcheck: struct fields documented `guarded by <mu>` may only be
//     touched by functions that lock <mu>, and a field must not mix
//     sync/atomic and plain access (see lockcheck.go).
//   - metricname: obs metric/span names are literal, lower_snake dotted,
//     and unique per package (see metricname.go).
//   - frozen: types annotated `//acclaim:frozen` — and every type
//     published through atomic.Pointer[T] — must be deep-immutable
//     after construction: no interior writes reachable outside the
//     constructor closure, no interior addresses escaping (frozen.go,
//     over the shared CHA call graph in callgraph.go).
//   - atomicdiscipline: no mixed atomic/plain access to a field, no
//     by-value copies of atomic-bearing structs, no mutation of values
//     already published through an atomic.Pointer
//     (atomicdiscipline.go).
//   - goroutinelife: every `go` statement has a provable termination
//     edge — a channel receive / ctx.Done select, a WaitGroup
//     Done+Wait pairing, or an `//acclaim:goroutine-owner` annotation
//     naming the shutdown path (goroutinelife.go).
//
// Any finding can be suppressed in source with
//
//	//acclaim:allow <check> <reason>
//
// on (or immediately above) the offending line, or in a function's doc
// comment to cover its whole body. The reason is mandatory: a
// suppression without one is itself a diagnostic.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, positioned in repo-relative coordinates.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// MarshalDiagnostics renders findings as the stable JSON array the CI
// job uploads as an artifact (empty slice marshals as [], not null).
func MarshalDiagnostics(ds []Diagnostic) ([]byte, error) {
	if ds == nil {
		ds = []Diagnostic{}
	}
	out, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// Package is one loaded, type-checked package plus its parsed
// directives.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Root  string // module root (diagnostics are reported relative to it)
	Fset  *token.FileSet
	Files []*ast.File
	TPkg  *types.Package
	Info  *types.Info

	allows    []allowDirective
	zeroAlloc []*ast.FuncDecl // functions annotated //acclaim:zeroalloc
	frozen    []*ast.TypeSpec // types annotated //acclaim:frozen
	owners    []lineDirective // //acclaim:goroutine-owner coverage ranges
	hygiene   []Diagnostic    // malformed-directive findings

	cg *callGraph // lazily built by graph()
}

// allowDirective is one parsed //acclaim:allow suppression: it covers
// diagnostics of Check in File on lines [FromLine, ToLine].
type allowDirective struct {
	Check    string
	File     string
	FromLine int
	ToLine   int
}

// lineDirective is a positional directive (such as
// //acclaim:goroutine-owner) covering File lines [FromLine, ToLine].
type lineDirective struct {
	File     string
	FromLine int
	ToLine   int
}

// covers reports whether the directive covers (file, line).
func (d lineDirective) covers(file string, line int) bool {
	return d.File == file && line >= d.FromLine && line <= d.ToLine
}

// CheckNames are the valid <check> arguments of //acclaim:allow.
var CheckNames = []string{
	"determinism", "zeroalloc", "lockcheck", "metricname",
	"frozen", "atomicdiscipline", "goroutinelife", "directive",
}

var directiveRe = regexp.MustCompile(`^//acclaim:(allow|zeroalloc|frozen|goroutine-owner)(?:\s+(.*))?$`)

// pos converts a token.Pos to repo-relative coordinates.
func (p *Package) pos(at token.Pos) (file string, line, col int) {
	position := p.Fset.Position(at)
	file = position.Filename
	if rel, err := filepath.Rel(p.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file, position.Line, position.Column
}

// diag builds a Diagnostic at a position.
func (p *Package) diag(check string, at token.Pos, format string, args ...any) Diagnostic {
	file, line, col := p.pos(at)
	return Diagnostic{Check: check, File: file, Line: line, Col: col, Message: fmt.Sprintf(format, args...)}
}

// parseDirectives scans every comment in the package for acclaim
// directives: //acclaim:allow suppressions (function-doc ones cover the
// whole body; free-standing ones cover their own line and the next),
// //acclaim:zeroalloc annotations on function declarations,
// //acclaim:frozen annotations on type declarations, and
// //acclaim:goroutine-owner annotations naming the shutdown path of a
// go statement (free-standing ones cover their own line and the next;
// function-doc ones cover every go statement in the function).
func (p *Package) parseDirectives() {
	known := make(map[string]bool, len(CheckNames))
	for _, c := range CheckNames {
		known[c] = true
	}
	for _, f := range p.Files {
		// Function-scoped directives from doc comments.
		docComments := map[*ast.Comment]*ast.FuncDecl{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				docComments[c] = fd
			}
		}
		// Type-scoped directives: a GenDecl doc comment covers its sole
		// spec; per-spec doc and line comments cover that spec.
		typeComments := map[*ast.Comment]*ast.TypeSpec{}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if gd.Doc != nil && len(gd.Specs) == 1 {
					for _, c := range gd.Doc.List {
						typeComments[c] = ts
					}
				}
				if ts.Doc != nil {
					for _, c := range ts.Doc.List {
						typeComments[c] = ts
					}
				}
				if ts.Comment != nil {
					for _, c := range ts.Comment.List {
						typeComments[c] = ts
					}
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				kind, rest := m[1], strings.TrimSpace(m[2])
				fd := docComments[c]
				switch kind {
				case "zeroalloc":
					if fd == nil {
						p.hygiene = append(p.hygiene, p.diag("directive", c.Pos(),
							"//acclaim:zeroalloc must be in a function's doc comment"))
						continue
					}
					p.zeroAlloc = append(p.zeroAlloc, fd)
				case "frozen":
					ts := typeComments[c]
					if ts == nil {
						p.hygiene = append(p.hygiene, p.diag("directive", c.Pos(),
							"//acclaim:frozen must be in a type declaration's doc or line comment"))
						continue
					}
					p.frozen = append(p.frozen, ts)
				case "goroutine-owner":
					if rest == "" {
						p.hygiene = append(p.hygiene, p.diag("directive", c.Pos(),
							"//acclaim:goroutine-owner needs the shutdown path spelled out"))
						continue
					}
					file, line, _ := p.pos(c.Pos())
					ld := lineDirective{File: file, FromLine: line, ToLine: line + 1}
					if fd != nil {
						_, from, _ := p.pos(fd.Pos())
						_, to, _ := p.pos(fd.End())
						ld.FromLine, ld.ToLine = from, to
					}
					p.owners = append(p.owners, ld)
				case "allow":
					check, reason, _ := strings.Cut(rest, " ")
					if !known[check] {
						p.hygiene = append(p.hygiene, p.diag("directive", c.Pos(),
							"//acclaim:allow names unknown check %q (known: %s)", check, strings.Join(CheckNames, ", ")))
						continue
					}
					if strings.TrimSpace(reason) == "" {
						p.hygiene = append(p.hygiene, p.diag("directive", c.Pos(),
							"//acclaim:allow %s needs a reason", check))
						continue
					}
					file, line, _ := p.pos(c.Pos())
					ad := allowDirective{Check: check, File: file, FromLine: line, ToLine: line + 1}
					if fd != nil {
						_, from, _ := p.pos(fd.Pos())
						_, to, _ := p.pos(fd.End())
						ad.FromLine, ad.ToLine = from, to
					}
					p.allows = append(p.allows, ad)
				}
			}
		}
	}
}

// suppressed reports whether d is covered by an //acclaim:allow.
func (p *Package) suppressed(d Diagnostic) bool {
	for _, a := range p.allows {
		if a.Check == d.Check && a.File == d.File && d.Line >= a.FromLine && d.Line <= a.ToLine {
			return true
		}
	}
	return false
}

// ZeroAllocFuncs returns the annotated function declarations.
func (p *Package) ZeroAllocFuncs() []*ast.FuncDecl { return p.zeroAlloc }

// Timing is one analyzer's wall time across every package of a run, as
// reported by acclaim-lint -v.
type Timing struct {
	Check string
	Ns    int64
}

// Run applies every analyzer to every package, filters suppressions,
// appends directive-hygiene findings, and returns the findings sorted
// by file, line, column, and check.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ds, _ := RunTimed(pkgs, analyzers, nil)
	return ds
}

// RunTimed is Run plus per-analyzer wall-time accounting. now is the
// clock (nanoseconds); nil means time.Now. The diagnostics are
// identical to Run's for any clock — timing never affects findings —
// and the timings come back in analyzer order, one entry per analyzer.
func RunTimed(pkgs []*Package, analyzers []*Analyzer, now func() int64) ([]Diagnostic, []Timing) {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	var out []Diagnostic
	for _, p := range pkgs {
		out = append(out, p.hygiene...)
	}
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		t0 := now()
		for _, p := range pkgs {
			for _, d := range a.Run(p) {
				if !p.suppressed(d) {
					out = append(out, d)
				}
			}
		}
		timings = append(timings, Timing{Check: a.Name, Ns: now() - t0})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out, timings
}

// DefaultAnalyzers is the full project suite, as run by cmd/acclaim-lint.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(DefaultDeterminismTargets),
		ZeroAlloc(),
		LockCheck(),
		MetricName(),
		Frozen(),
		AtomicDiscipline(),
		GoroutineLife(),
	}
}

// --- shared type-query helpers ---

// funcObj resolves a call's callee to its *types.Func, nil for builtins,
// conversions, and indirect calls through function values.
func (p *Package) funcObj(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// pkgPath returns the import path of the package an object belongs to
// ("" for universe-scope objects like builtins).
func pkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// recvNamed returns the named type of a method's receiver (pointers
// stripped), or nil for non-methods.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
