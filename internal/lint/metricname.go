package lint

import (
	"go/ast"
	"go/constant"
	"regexp"
	"strconv"
	"strings"
)

// metricNameRe is the project naming scheme (obs package doc): dotted
// lower_snake segments. Span names additionally allow ':' separators
// ("tune:bcast").
var (
	metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)
	spanNameRe   = regexp.MustCompile(`^[a-z][a-z0-9_.:]*$`)
)

// registrationMethods are the obs.Registry entry points that bind a
// metric name.
var registrationMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"Func": true, "HDR": true, "HDRFunc": true,
}

// metricNameAnalyzer returns the metricname analyzer. At every obs metric
// registration and span start in non-test code it checks that:
//
//   - the name is a compile-time string constant — dynamic names
//     (per-collective gauges) need an //acclaim:allow so a reviewer
//     sees that the runtime segments keep the scheme;
//   - the name matches ^[a-z][a-z0-9_.]*$ (spans may also use ':');
//   - no two registration sites in a package bind the same name (the
//     registry's get-or-create would silently share state).
func metricNameAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "metricname",
		Doc:  "obs metric/span names: literal, lower_snake dotted, unique",
		Run: func(p *Package) []Diagnostic {
			var ds []Diagnostic
			first := map[string]string{} // name -> first registration position
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						return true
					}
					fn := p.funcObj(call)
					if fn == nil || !strings.HasSuffix(pkgPath(fn), "internal/obs") {
						return true
					}
					isReg := registrationMethods[fn.Name()] && func() bool {
						named := recvNamed(fn)
						return named != nil && named.Obj().Name() == "Registry"
					}()
					isSpan := fn.Name() == "StartSpan"
					if !isReg && !isSpan {
						return true
					}

					arg := call.Args[0]
					tv := p.Info.Types[arg]
					if tv.Value == nil || tv.Value.Kind() != constant.String {
						kind := "metric"
						if isSpan {
							kind = "span"
						}
						ds = append(ds, p.diag("metricname", arg.Pos(),
							"%s name is not a constant string; dynamic names need an //acclaim:allow with the runtime scheme spelled out", kind))
						return true
					}
					name := constant.StringVal(tv.Value)
					re := metricNameRe
					if isSpan {
						re = spanNameRe
					}
					if !re.MatchString(name) {
						ds = append(ds, p.diag("metricname", arg.Pos(),
							"name %q does not match %s", name, re))
					}
					if isSpan {
						return true
					}
					file, line, _ := p.pos(arg.Pos())
					at := file + ":" + strconv.Itoa(line)
					if prev, dup := first[name]; dup {
						ds = append(ds, p.diag("metricname", arg.Pos(),
							"metric %q already registered at %s; registry get-or-create would silently share state", name, prev))
					} else {
						first[name] = at
					}
					return true
				})
			}
			return ds
		},
	}
}
