package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismTargets are the packages whose output must be
// bit-identical for a given seed: jackknife-driven point selection is
// only comparable across runs if training is reproducible (paper §IV),
// the emitted rule file is the artifact golden tests diff, and the
// simulator, benchmark and experiment packages under them are pinned
// by the live-job and simulated-clock goldens. Matched as import-path
// suffixes. The obs package is the one sanctioned host-clock seam
// (obs.NowNs, the trace clock); obs, ruleserver, loadgen and lint read
// host time by design and are deliberately not in this list.
var determinismTargets = []string{
	"internal/autotune",
	"internal/benchmark",
	"internal/cluster",
	"internal/coll",
	"internal/core",
	"internal/dataset",
	"internal/exhaustive",
	"internal/experiments",
	"internal/fact",
	"internal/featspace",
	"internal/forest",
	"internal/heuristic",
	"internal/hunold",
	"internal/netmodel",
	"internal/rules",
	"internal/sched",
	"internal/simmpi",
	"internal/stats",
	"internal/traces",
}

// wall-clock reads: anything observing host time.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Seeded-constructor funcs of math/rand and math/rand/v2 are fine; every
// other package-level func draws from the shared, unseeded global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// determinismAnalyzer returns the determinism analyzer scoped to
// packages whose import path ends with one of targets. It flags, inside
// those packages:
//
//   - calls to time.Now / time.Since / time.Until (host time must flow
//     through the obs clock seam, which lives outside the target set);
//   - calls to package-level math/rand and math/rand/v2 functions other
//     than seeded constructors (they draw from the global source), and
//     any use of crypto/rand;
//   - range loops over maps that append to a slice never passed to a
//     sort or slices call later in the same function — the shape that
//     turns map iteration order into output order.
func determinismAnalyzer(targets []string) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock, global RNG, and order-leaking map iteration in tuning packages",
		Run: func(p *Package) []Diagnostic {
			if !pathMatches(p.Path, targets) {
				return nil
			}
			var ds []Diagnostic
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := p.funcObj(call)
					if fn == nil {
						return true
					}
					switch path := pkgPath(fn); path {
					case "time":
						if timeFuncs[fn.Name()] && recvNamed(fn) == nil {
							ds = append(ds, p.diag("determinism", call.Pos(),
								"call to time.%s in deterministic tuning package (read host time through the obs clock seam, e.g. obs.NowNs)", fn.Name()))
						}
					case "math/rand", "math/rand/v2":
						if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !randConstructors[fn.Name()] {
							ds = append(ds, p.diag("determinism", call.Pos(),
								"call to global %s.%s draws from the unseeded shared source (use a seeded *rand.Rand)", path, fn.Name()))
						}
					case "crypto/rand":
						ds = append(ds, p.diag("determinism", call.Pos(),
							"crypto/rand is nondeterministic by design; tuning code must use a seeded *rand.Rand"))
					}
					return true
				})
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
						ds = append(ds, p.mapOrderLeaks(fd)...)
					}
				}
			}
			return ds
		},
	}
}

// mapOrderLeaks flags map-range loops in fd that append into a slice
// which no sort/slices call in the same function ever touches: without
// the sort, the slice's element order is the map's random iteration
// order. (The sorted form — collect keys, sort, iterate — is the
// sanctioned pattern, e.g. core's run-report assembly.)
func (p *Package) mapOrderLeaks(fd *ast.FuncDecl) []Diagnostic {
	// Objects appearing anywhere inside a sort.* / slices.* call.
	sorted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.funcObj(call)
		if fn == nil {
			return true
		}
		if path := pkgPath(fn); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil {
						sorted[obj] = true
					}
				}
				return true
			})
		}
		return true
	})

	var ds []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(bn ast.Node) bool {
			asg, ok := bn.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
				return true
			}
			call, ok := asg.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				return true
			} else if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			lhs, ok := asg.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[lhs]
			if obj == nil {
				obj = p.Info.Defs[lhs]
			}
			if obj == nil || sorted[obj] {
				return true
			}
			ds = append(ds, p.diag("determinism", asg.Pos(),
				"map iteration appends to %s, which is never sorted in %s: element order becomes map iteration order", lhs.Name, fd.Name.Name))
			return true
		})
		return true
	})
	return ds
}

// pathMatches reports whether path ends with any of the suffixes (or
// equals one exactly).
func pathMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
