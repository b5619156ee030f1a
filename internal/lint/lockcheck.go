package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// lockCheckAnalyzer returns the lockcheck analyzer, the project's
// synchronisation rules:
//
//   - a struct field whose doc or line comment contains "guarded by
//     <mu>" may only be read or written inside functions that lock <mu>
//     (a call to <mu>.Lock or <mu>.RLock somewhere in the function — a
//     lexical approximation of "on all paths": a function that locks
//     conditionally should be split or carry an //acclaim:allow);
//   - no call to a package-level sync/atomic function: shared words
//     are typed atomics (atomic.Int64, atomic.Pointer[T], ...), so no
//     field can be accessed both atomically and plainly.
//
// By-value copies of typed atomics are go vet's copylocks check, and
// writes through a value loaded from an atomic.Pointer are the frozen
// analyzer's.
//
// Scope is the declaring package — the guarded fields of this codebase
// are unexported, so every access site is visible to the analysis.
func lockCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockcheck",
		Doc:  "enforce 'guarded by <mu>' field comments and typed atomics",
		Run:  func(p *Package) []Diagnostic { return p.lockcheck() },
	}
}

func (p *Package) lockcheck() []Diagnostic {
	ds := p.atomicFuncCalls()

	// Pass 1: guarded fields. guard[field] = mutex field object.
	guard := map[types.Object]types.Object{}
	guardName := map[types.Object]string{} // field -> "Struct.field guarded by mu" label parts
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			// Field name -> object, to resolve the named mutex.
			byName := map[string]types.Object{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					byName[name.Name] = p.Info.Defs[name]
				}
			}
			for _, fld := range st.Fields.List {
				text := ""
				if fld.Doc != nil {
					text += fld.Doc.Text()
				}
				if fld.Comment != nil {
					text += fld.Comment.Text()
				}
				m := guardedByRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				mu, ok := byName[m[1]]
				if !ok || mu == nil {
					ds = append(ds, p.diag("lockcheck", fld.Pos(),
						"'guarded by %s' names no field of %s", m[1], ts.Name.Name))
					continue
				}
				for _, name := range fld.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						guard[obj] = mu
						guardName[obj] = ts.Name.Name + "." + name.Name + " (guarded by " + m[1] + ")"
					}
				}
			}
			return true
		})
	}

	if len(guard) == 0 {
		return ds
	}

	// Pass 2: every field access in the package.
	forEachFunc(p, func(fd *ast.FuncDecl) {
		locked := p.lockedMutexes(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			obj := s.Obj()
			if mu, ok := guard[obj]; ok && !locked[mu] {
				ds = append(ds, p.diag("lockcheck", sel.Sel.Pos(),
					"%s accessed in %s, which never locks it", guardName[obj], fd.Name.Name))
			}
			return true
		})
	})
	return ds
}

// atomicFuncCalls flags every call to a package-level sync/atomic
// function (atomic.AddInt64(&s.f, 1) and friends).
func (p *Package) atomicFuncCalls() []Diagnostic {
	var ds []Diagnostic
	forEachFunc(p, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := p.funcObj(call); fn != nil && pkgPath(fn) == "sync/atomic" && recvNamed(fn) == nil {
				ds = append(ds, p.diag("lockcheck", call.Pos(),
					"call to atomic.%s: use a typed atomic so the word cannot also be accessed plainly", fn.Name()))
			}
			return true
		})
	})
	return ds
}

// lockedMutexes returns the mutex field objects fd calls .Lock or
// .RLock on.
func (p *Package) lockedMutexes(fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := p.Info.Selections[inner]; s != nil && s.Kind() == types.FieldVal {
			out[s.Obj()] = true
		}
		return true
	})
	return out
}

// forEachFunc visits every function declaration with a body.
func forEachFunc(p *Package, visit func(*ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}
