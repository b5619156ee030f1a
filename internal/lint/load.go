package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load parses and type-checks the non-test Go packages under root that
// match the given patterns ("./pkg" for one directory, "./..." or
// "./pkg/..." for a subtree; testdata, vendor, and hidden directories
// are skipped during expansion). Type-checking uses the stdlib source
// importer — no compiler export data, no external modules — with cgo
// disabled so the pure-Go views of std packages are used.
//
// Test files are deliberately excluded: the invariants guard production
// code, and tests legitimately fake clocks, names, and locks.
//
// Loading is serial. Every requested directory is parsed first; then
// each package is type-checked once, when the first package importing
// it is checked or, failing that, in import-path order. One importer
// serves load-set packages from the loader's own results and every
// other path (std, module packages outside the load set) from the
// source importer. Packages come back in import-path order.
func Load(root string, patterns ...string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}

	// With cgo off, std packages like net fall back to their pure-Go
	// variants, which is all these analyzers need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement types.ImporterFrom")
	}
	l := &loader{fset: fset, src: src, parsed: map[string]*parsedPkg{}, checked: map[string]*Package{}}

	var order []string
	for _, dir := range dirs {
		p, err := parseDir(root, modPath, dir, fset)
		if err != nil {
			return nil, err
		}
		if p != nil {
			l.parsed[p.path] = p
			order = append(order, p.path)
		}
	}
	sort.Strings(order)

	pkgs := make([]*Package, 0, len(order))
	for _, path := range order {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// loader is the types.ImporterFrom every package is checked against:
// module packages in the load set are type-checked from their parsed
// syntax once and memoised, and every other path goes to the source
// importer, which memoises its own.
type loader struct {
	fset    *token.FileSet
	src     types.ImporterFrom
	parsed  map[string]*parsedPkg
	checked map[string]*Package // nil value: check in progress
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.parsed[path]; !ok {
		return l.src.ImportFrom(path, dir, mode)
	}
	pkg, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return pkg.TPkg, nil
}

// check type-checks one parsed package, after (recursively, through
// ImportFrom) every load-set package it imports.
func (l *loader) check(path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	l.checked[path] = nil
	pkg, err := checkPkg(l.parsed[path], l.fset, l)
	if err != nil {
		return nil, err
	}
	l.checked[path] = pkg
	return pkg, nil
}

// parsedPkg is one directory's syntax, parsed but not yet checked.
type parsedPkg struct {
	root, dir, path string
	files           []*ast.File
}

// parseDir parses the single package in dir, or nil if dir holds no
// non-test Go files.
func parseDir(root, modPath, dir string, fset *token.FileSet) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	path := modPath
	if rel, err := filepath.Rel(root, dir); err == nil && rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	return &parsedPkg{root: root, dir: dir, path: path, files: files}, nil
}

// checkPkg type-checks one parsed package.
func checkPkg(p *parsedPkg, fset *token.FileSet, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(p.path, fset, p.files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.path, err)
	}

	pkg := &Package{Path: p.path, Dir: p.dir, Root: p.root, Fset: fset, Files: p.files, TPkg: tpkg, Info: info}
	pkg.parseDirectives()
	return pkg, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

// expand resolves patterns to package directories.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			rec, pat = true, "."
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		fi, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a directory", pat)
		}
		if !rec {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
