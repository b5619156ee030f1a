package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutineLifeAnalyzer returns the goroutinelife analyzer: every `go`
// statement must have a provable termination edge, so long-lived
// components (the serving loop, the upcoming reconcile controller)
// cannot quietly leak workers. A spawn is accepted when the spawned
// body — a function literal, or the declaration of an in-package
// static callee resolved through the shared call graph — contains at
// least one of:
//
//   - a channel receive (`<-done`, `<-ctx.Done()`, a receive case in a
//     select) or a range over a channel: the goroutine parks on
//     something the owner can close;
//   - a sync.WaitGroup Done call whose WaitGroup the spawning function
//     also Waits on: the classic bounded fan-out worker.
//
// Receives from time.Tick do not count — that channel never closes and
// the ticker can never be stopped, so `for range time.Tick(d)` is a
// leak, flagged with its own message. Spawns the analyzer cannot
// resolve (method values, function-typed variables, cross-package
// callees) and bodies with no edge must carry an
// `//acclaim:goroutine-owner <shutdown path>` annotation on (or
// immediately above) the go statement, or in the enclosing function's
// doc comment.
//
// What this does not prove: that the receive is reachable on every
// path, that the owner actually closes the channel, or that nested
// spawns inside the body terminate (each nested `go` is checked at its
// own site). It is a structural obligation — every goroutine names its
// parking mechanism — not a liveness proof.
func goroutineLifeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "goroutinelife",
		Doc:  "require a termination edge (channel receive, bounded WaitGroup, or //acclaim:goroutine-owner) for every go statement",
		Run:  func(p *Package) []Diagnostic { return p.goroutineLife() },
	}
}

func (p *Package) goroutineLife() []Diagnostic {
	var ds []Diagnostic
	g := p.graph()
	forEachFunc(p, func(fd *ast.FuncDecl) {
		waits := p.waitGroupObjs(fd.Body, "Wait")
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			file, line, _ := p.pos(gs.Pos())
			for _, o := range p.owners {
				if o.covers(file, line) {
					return true
				}
			}

			var body *ast.BlockStmt
			spawned := ""
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
				spawned = "function literal"
			default:
				_ = fun
				if fn := p.funcObj(gs.Call); fn != nil {
					if decl, declared := g.decl[fn]; declared {
						body = decl.Body
						spawned = fn.Name()
					}
				}
			}
			if body == nil {
				ds = append(ds, p.diag("goroutinelife", gs.Pos(),
					"go statement spawns a callee the analyzer cannot resolve; annotate //acclaim:goroutine-owner <shutdown path>"))
				return true
			}
			edge, tick := p.terminationEdge(body, waits)
			if edge {
				return true
			}
			if tick {
				ds = append(ds, p.diag("goroutinelife", gs.Pos(),
					"goroutine %s receives only from time.Tick, which never stops and leaks its ticker; use time.NewTicker with a done-channel select", spawned))
				return true
			}
			ds = append(ds, p.diag("goroutinelife", gs.Pos(),
				"goroutine %s has no termination edge (no channel receive, no WaitGroup Done matched by a Wait here); annotate //acclaim:goroutine-owner <shutdown path>", spawned))
			return true
		})
	})
	return ds
}

// terminationEdge scans a spawned body for a termination edge. waits is
// the set of WaitGroup objects the spawning function calls Wait on.
// tick reports whether a time.Tick receive was seen (a leak, not an
// edge).
func (p *Package) terminationEdge(body *ast.BlockStmt, waits map[types.Object]bool) (edge, tick bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if edge {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			if isTimeTickCall(p, n.X) {
				tick = true
				return true
			}
			edge = true
		case *ast.RangeStmt:
			t := p.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				return true
			}
			if isTimeTickCall(p, n.X) {
				tick = true
				return true
			}
			edge = true
		case *ast.CallExpr:
			if obj := p.waitGroupRecvObj(n, "Done"); obj != nil && waits[obj] {
				edge = true
			}
		}
		return true
	})
	return edge, tick
}

// isTimeTickCall reports whether e is a call to time.Tick.
func isTimeTickCall(p *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := p.funcObj(call)
	return fn != nil && fn.Name() == "Tick" && pkgPath(fn) == "time"
}

// waitGroupObjs collects the objects (locals, params, or struct fields)
// on which body calls sync.WaitGroup method name.
func (p *Package) waitGroupObjs(body *ast.BlockStmt, name string) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := p.waitGroupRecvObj(call, name); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// waitGroupRecvObj returns the receiver object of a
// sync.WaitGroup.<name> call (wg.Done(), s.wg.Wait(), ...), nil
// otherwise.
func (p *Package) waitGroupRecvObj(call *ast.CallExpr, name string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	fn := p.funcObj(call)
	if fn == nil {
		return nil
	}
	recv := recvNamed(fn)
	if recv == nil || recv.Obj().Name() != "WaitGroup" || recv.Obj().Pkg() == nil ||
		recv.Obj().Pkg().Path() != "sync" {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return p.objOf(x)
	case *ast.SelectorExpr:
		if s := p.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}
