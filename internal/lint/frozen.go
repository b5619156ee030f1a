package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// frozenAnalyzer returns the frozen analyzer. A named type is frozen
// when its declaration carries `//acclaim:frozen`, or when it is published
// through an atomic.Pointer[T] anywhere in the package (a hot-swapped
// snapshot: readers hold it lock-free, so any post-construction
// mutation is a data race by design, not by accident). For each frozen
// type T the analyzer computes T's constructor closure over the shared
// CHA call graph — the functions whose results include T or *T, plus
// the unexported, non-address-taken helpers reachable only from them —
// and then flags, everywhere outside that closure:
//
//   - writes to T's interior through a pointer: assignments, compound
//     assignments, and ++/-- whose left side reaches a field or element
//     of a *T, directly or through a tracked local alias;
//   - interior addresses (&t.f, &t.f[i]) or reference-typed interior
//     state (slice/map fields) escaping the function: returned, stored
//     into a non-local, sent on a channel, or placed in a composite
//     literal.
//
// What the analyzer deliberately does not prove: mutation through
// method calls on interior values (pc.lookups.Add(1) — sync/atomic
// interior mutability is the designed exception, and in-package methods
// that write their receiver are caught by the write rule itself),
// mutation by callees receiving an interior pointer as an argument
// (flagged at the passing site instead, except into sync/atomic), and
// writes through aliases that cross function boundaries. Value-typed
// copies of T may be written freely — mutating a copy cannot race.
func frozenAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "frozen",
		Doc:  "forbid post-construction interior writes and escaping interior aliases of //acclaim:frozen and atomic.Pointer-published types",
		Run:  func(p *Package) []Diagnostic { return p.frozenCheck() },
	}
}

// frozenInfo is one frozen type plus why it is frozen.
type frozenInfo struct {
	name *types.TypeName
	why  string // "annotated //acclaim:frozen" or "published through atomic.Pointer"
}

func (p *Package) frozenCheck() []Diagnostic {
	frozen := p.frozenTypes()
	if len(frozen) == 0 {
		return nil
	}
	g := p.graph()

	// Constructor closure per frozen type.
	closure := map[*types.TypeName]map[*types.Func]bool{}
	for tn := range frozen {
		seed := map[*types.Func]bool{}
		for fn := range g.decl {
			if fnConstructs(fn, tn) {
				seed[fn] = true
			}
		}
		closure[tn] = g.privateClosure(seed)
	}

	var ds []Diagnostic
	forEachFunc(p, func(fd *ast.FuncDecl) {
		fn, _ := p.Info.Defs[fd.Name].(*types.Func)
		exempt := map[*types.TypeName]bool{}
		for tn := range frozen {
			if fn != nil && closure[tn][fn] {
				exempt[tn] = true
			}
		}
		ds = append(ds, p.frozenScanFunc(fd, frozen, exempt)...)
	})
	return ds
}

// frozenTypes collects the package's frozen types: annotated ones plus
// every in-package named type appearing as the type argument of an
// atomic.Pointer anywhere in the package's type syntax.
func (p *Package) frozenTypes() map[*types.TypeName]frozenInfo {
	out := map[*types.TypeName]frozenInfo{}
	for _, ts := range p.frozen {
		if tn, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
			out[tn] = frozenInfo{name: tn, why: "annotated //acclaim:frozen"}
		}
	}
	for _, tv := range p.Info.Types {
		if !tv.IsType() {
			continue
		}
		elem := atomicPointerElem(tv.Type)
		if elem == nil {
			continue
		}
		tn := elem.Obj()
		if tn.Pkg() != p.TPkg {
			continue
		}
		if _, ok := out[tn]; !ok {
			out[tn] = frozenInfo{name: tn, why: "published through atomic.Pointer"}
		}
	}
	return out
}

// atomicPointerElem returns the named type argument T of a
// sync/atomic.Pointer[T] instantiation, or nil.
func atomicPointerElem(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Pointer" || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "sync/atomic" {
		return nil
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	elem, _ := args.At(0).(*types.Named)
	return elem
}

// fnConstructs reports whether fn's results include tn's type (by value
// or pointer) — the definition of a constructor for the closure seed.
func fnConstructs(fn *types.Func, tn *types.TypeName) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == tn {
			return true
		}
	}
	return false
}

// frozenScanFunc scans one declared function (closures included) for
// frozen violations, skipping types the function is a constructor of.
func (p *Package) frozenScanFunc(fd *ast.FuncDecl, frozen map[*types.TypeName]frozenInfo, exempt map[*types.TypeName]bool) []Diagnostic {
	var ds []Diagnostic
	flag := func(at token.Pos, format string, args ...any) {
		ds = append(ds, p.diag("frozen", at, format, args...))
	}

	// aliases maps a local object to the frozen type whose interior it
	// references (from v := &t.f, v := t.sliceField, or chains thereof).
	aliases := map[types.Object]*types.TypeName{}

	// hit returns the frozen, non-exempt type whose interior expr
	// reaches: the chain of selectors/indexes/derefs from expr down to
	// a base that is a *T (or an alias local).
	var hit func(e ast.Expr) *types.TypeName
	hit = func(e ast.Expr) *types.TypeName {
		e = ast.Unparen(e)
		switch e := e.(type) {
		case *ast.Ident:
			if tn := aliases[p.objOf(e)]; tn != nil && !exempt[tn] {
				return tn
			}
		case *ast.SelectorExpr:
			if tn := p.frozenPointerBase(e.X, frozen, exempt); tn != nil {
				return tn
			}
			return hit(e.X)
		case *ast.IndexExpr:
			return hit(e.X)
		case *ast.StarExpr:
			if tn := p.frozenPointerBase(e.X, frozen, exempt); tn != nil {
				return tn
			}
			return hit(e.X)
		}
		return nil
	}

	// interiorRef reports whether rhs yields a reference into a frozen
	// value's interior: &chain, or a slice/map-typed chain value.
	interiorRef := func(rhs ast.Expr) *types.TypeName {
		rhs = ast.Unparen(rhs)
		if un, ok := rhs.(*ast.UnaryExpr); ok && un.Op == token.AND {
			return hit(un.X)
		}
		switch rhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			if !isRefKind(p.Info.TypeOf(rhs)) {
				return nil
			}
			return hit(rhs)
		}
		return nil
	}

	parent := parentMap(fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Alias introduction: local := interior reference.
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					if tn := interiorRef(rhs); tn != nil {
						if obj := p.objOf(id); obj != nil {
							aliases[obj] = tn
						}
					}
				}
			}
			// Interior writes.
			for _, lhs := range n.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					continue // rebinding a variable, not an interior write
				}
				if tn := hit(lhs); tn != nil {
					ds = append(ds, p.frozenWriteDiag(lhs.Pos(), tn, frozen[tn]))
				}
			}
		case *ast.IncDecStmt:
			if _, ok := ast.Unparen(n.X).(*ast.Ident); !ok {
				if tn := hit(n.X); tn != nil {
					ds = append(ds, p.frozenWriteDiag(n.X.Pos(), tn, frozen[tn]))
				}
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			tn := hit(n.X)
			if tn == nil {
				return true
			}
			if how := escapeContext(parent, n, p); how != "" {
				flag(n.Pos(), "&-alias of %s interior (%s) %s; frozen interior must not escape",
					tn.Name(), frozen[tn].why, how)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				res = ast.Unparen(res)
				switch res.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.Ident:
					if !isRefKind(p.Info.TypeOf(res)) {
						continue
					}
					if _, isIdent := res.(*ast.Ident); isIdent {
						if tn := aliases[p.objOf(res.(*ast.Ident))]; tn != nil && !exempt[tn] {
							flag(res.Pos(), "returns reference into %s interior (%s); frozen interior must not escape",
								tn.Name(), frozen[tn].why)
						}
						continue
					}
					if tn := hit(res); tn != nil {
						flag(res.Pos(), "returns reference into %s interior (%s); frozen interior must not escape",
							tn.Name(), frozen[tn].why)
					}
				}
			}
		}
		return true
	})
	return ds
}

func (p *Package) frozenWriteDiag(at token.Pos, tn *types.TypeName, info frozenInfo) Diagnostic {
	return p.diag("frozen", at,
		"write to interior of frozen type %s (%s) outside its constructor closure", tn.Name(), info.why)
}

// frozenPointerBase reports the frozen type when e's type is *T for a
// frozen, non-exempt T — the pointer link that makes an interior access
// a shared-object access rather than a local-copy one.
func (p *Package) frozenPointerBase(e ast.Expr, frozen map[*types.TypeName]frozenInfo, exempt map[*types.TypeName]bool) *types.TypeName {
	t := p.Info.TypeOf(e)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	tn := named.Obj()
	if _, isFrozen := frozen[tn]; isFrozen && !exempt[tn] {
		return tn
	}
	return nil
}

// objOf resolves an identifier to its object (use or def).
func (p *Package) objOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// isRefKind reports whether t is reference-shaped interior state:
// mutating through a copy mutates the original (slices and maps).
// Pointer-typed fields are deliberately excluded — the pointee is its
// own object with its own discipline, not this struct's storage.
func isRefKind(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// parentMap records each node's parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// escapeContext classifies how an &-of-interior expression leaves the
// function, returning "" for the benign uses (bound to a local — which
// alias tracking then watches — or the receiver/argument of a
// sync/atomic call).
func escapeContext(parents map[ast.Node]ast.Node, n ast.Node, p *Package) string {
	par := parents[n]
	for {
		if pe, ok := par.(*ast.ParenExpr); ok {
			_ = pe
			par = parents[par]
			continue
		}
		break
	}
	switch par := par.(type) {
	case *ast.AssignStmt:
		for _, lhs := range par.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				return "is stored into a non-local"
			}
		}
		return "" // bound to locals; alias tracking takes over
	case *ast.ReturnStmt:
		return "is returned"
	case *ast.SendStmt:
		return "is sent on a channel"
	case *ast.CompositeLit:
		return "is placed in a composite literal"
	case *ast.KeyValueExpr:
		return "is placed in a composite literal"
	case *ast.CallExpr:
		if fn := p.funcObj(par); fn != nil && pkgPath(fn) == "sync/atomic" {
			return ""
		}
		// The address being the method receiver chain is not an
		// argument; only flag true argument positions.
		for _, arg := range par.Args {
			if ast.Unparen(arg) == n {
				return "is passed to a call"
			}
		}
		return ""
	case *ast.UnaryExpr, *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr:
		return "" // immediate read/deref/method access
	}
	return ""
}
