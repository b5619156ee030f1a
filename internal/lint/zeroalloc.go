package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// zeroAllocAnalyzer returns the zeroalloc analyzer. Functions annotated
// `//acclaim:zeroalloc` in their doc comment — the hot paths whose
// runtime testing.AllocsPerRun gates pin at zero allocations — are
// rejected if they contain a *syntactic* allocation site:
//
//   - make / new / append calls and composite literals;
//   - any call into fmt (formatting always allocates);
//   - string concatenation inside a loop, and []byte/[]rune <-> string
//     conversions;
//   - function literals that capture variables (captured closures are
//     heap-allocated);
//   - arguments whose concrete, non-pointer-shaped type is boxed into
//     an interface parameter.
//
// The check is deliberately syntactic, not an escape analysis: it can
// be wrong in both directions on clever code, but on the annotated hot
// paths a flagged site is a review conversation worth having, and a
// genuinely safe one carries an //acclaim:allow with its reason.
func zeroAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "zeroalloc",
		Doc:  "forbid syntactic allocation sites in //acclaim:zeroalloc functions",
		Run: func(p *Package) []Diagnostic {
			var ds []Diagnostic
			for _, fd := range p.zeroAlloc {
				if fd.Body != nil {
					ds = append(ds, p.allocSites(fd)...)
				}
			}
			return ds
		},
	}
}

// allocSites walks one annotated function body.
func (p *Package) allocSites(fd *ast.FuncDecl) []Diagnostic {
	var ds []Diagnostic
	flag := func(at token.Pos, format string, args ...any) {
		ds = append(ds, p.diag("zeroalloc", at, format, args...))
	}

	// Loop extents, for the string-concat-in-loop rule.
	var loops [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, [2]token.Pos{n.Pos(), n.End()})
		}
		return true
	})
	inLoop := func(at token.Pos) bool {
		for _, l := range loops {
			if at >= l[0] && at <= l[1] {
				return true
			}
		}
		return false
	}
	isString := func(e ast.Expr) bool {
		t := p.Info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			flag(n.Pos(), "composite literal allocates in zeroalloc function %s", fd.Name.Name)

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(n.X) && inLoop(n.Pos()) {
				flag(n.Pos(), "string concatenation in a loop allocates in zeroalloc function %s", fd.Name.Name)
			}

		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(n.Lhs[0]) && inLoop(n.Pos()) {
				flag(n.Pos(), "string += in a loop allocates in zeroalloc function %s", fd.Name.Name)
			}

		case *ast.FuncLit:
			if caps := p.captures(n); len(caps) > 0 {
				flag(n.Pos(), "closure captures %s and is heap-allocated in zeroalloc function %s", caps[0], fd.Name.Name)
			}

		case *ast.CallExpr:
			p.checkZeroAllocCall(fd, n, flag)
		}
		return true
	})
	return ds
}

// checkZeroAllocCall flags allocating builtins, fmt calls, allocating
// conversions, and interface-boxing arguments of one call.
func (p *Package) checkZeroAllocCall(fd *ast.FuncDecl, call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				flag(call.Pos(), "%s allocates in zeroalloc function %s", b.Name(), fd.Name.Name)
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, p.Info.TypeOf(call.Args[0])
		if to != nil && from != nil {
			if types.IsInterface(to) && !types.IsInterface(from) && !pointerShaped(from) {
				flag(call.Pos(), "conversion boxes %s into an interface in zeroalloc function %s", from, fd.Name.Name)
			}
			if allocatingConversion(to, from) {
				flag(call.Pos(), "conversion between string and byte/rune slice allocates in zeroalloc function %s", fd.Name.Name)
			}
		}
		return
	}

	if fn := p.funcObj(call); fn != nil && pkgPath(fn) == "fmt" {
		flag(call.Pos(), "call to fmt.%s allocates in zeroalloc function %s", fn.Name(), fd.Name.Name)
		return
	}

	// Interface boxing at argument positions.
	sig, ok := typeOfFun(p, call)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if pointerShaped(at) {
			continue
		}
		flag(arg.Pos(), "argument boxes %s into interface parameter in zeroalloc function %s", at, fd.Name.Name)
	}
}

// typeOfFun returns the signature of a (non-conversion, non-builtin)
// call expression.
func typeOfFun(p *Package, call *ast.CallExpr) (*types.Signature, bool) {
	t := p.Info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// pointerShaped reports whether values of t fit in a pointer word and
// box into an interface without a heap allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// allocatingConversion reports string <-> []byte / []rune conversions.
func allocatingConversion(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) || (isStringType(from) && isByteOrRuneSlice(to))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// captures returns the names of variables a function literal captures
// from an enclosing scope (package-level variables excluded: they are
// not closed over).
func (p *Package) captures(lit *ast.FuncLit) []string {
	var out []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == p.TPkg.Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal (params, locals)
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}
