package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Unit is one type-checked body of files: a package together with its
// in-package _test.go files, or an external (package foo_test) test
// package, checked, as go test compiles it, against the former. Test
// membership is tracked per file so policies can exempt tests without a
// second load path.
type Unit struct {
	Path  string // import path used for scope decisions
	Files []*ast.File
	Test  map[*ast.File]bool
	Pkg   *types.Package
	Info  *types.Info
}

// parsedDir caches one directory's parse, so a package read both as an
// import and as a lint target is parsed once.
type parsedDir struct {
	files     []*ast.File // non-test files, sorted filename order
	testFiles []*ast.File // _test.go files, sorted filename order
}

// Loader parses and type-checks packages with nothing outside the
// standard library: module-internal imports are resolved against the
// module root and checked from source recursively; everything else
// (the standard library) goes through go/importer's source importer.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root directory (contains go.mod)
	Module string // module path from go.mod

	std types.ImporterFrom
	// imports holds the import view of each module package loaded so
	// far: its non-test files only, as the go toolchain compiles an
	// imported package.
	imports map[string]*types.Package
	loading map[string]bool
	parsed  map[string]*parsedDir // keyed by cleaned directory path

	// base, set on a test variant (testVariant), supplies the import view
	// of every module package that does not import under, the package
	// whose external tests the variant checks.
	base  *Loader
	under string
}

// NewLoader creates a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, errors.New("lint: source importer unavailable")
	}
	return &Loader{
		Fset:    fset,
		Root:    root,
		Module:  module,
		std:     std,
		imports: map[string]*types.Package{},
		loading: map[string]bool{},
		parsed:  map[string]*parsedDir{},
	}, nil
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Clean(filepath.Join(l.Root, filepath.FromSlash(rel)))
}

// Import resolves one import path: module packages from source under the
// module root, anything else via the stdlib source importer. Module
// packages are checked as the go toolchain would compile them for an
// importer — non-test files only — so in-package test files can never
// manufacture an import cycle.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if !pathMatch(path, l.Module) {
		return l.std.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	if l.base != nil {
		pkg, err := l.base.Import(path)
		if err != nil {
			return nil, err
		}
		if !importsPath(pkg, l.under, map[*types.Package]bool{}) {
			l.imports[path] = pkg
			return pkg, nil
		}
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	pd, err := l.parseDir(l.dirFor(path))
	if err != nil {
		return nil, err
	}
	if len(pd.files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s for import %q", l.dirFor(path), path)
	}
	pkg, err := l.typecheck(path, pd.files, nil)
	if err != nil {
		return nil, err
	}
	l.imports[path] = pkg
	return pkg, nil
}

// ImportFrom implements types.ImporterFrom; vendoring is not supported.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}

// parseDir parses every .go file in dir, split into non-test files and
// _test.go files, in sorted filename order. Each directory is parsed at
// most once per loader.
func (l *Loader) parseDir(dir string) (*parsedDir, error) {
	dir = filepath.Clean(dir)
	if pd, ok := l.parsed[dir]; ok {
		return pd, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pd := &parsedDir{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pd.testFiles = append(pd.testFiles, f)
		} else {
			pd.files = append(pd.files, f)
		}
	}
	l.parsed[dir] = pd
	return pd, nil
}

// typecheck checks one set of files as a package, recording into info
// unless it is nil.
func (l *Loader) typecheck(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		const max = 10
		if len(errs) > max {
			errs = append(errs[:max], fmt.Errorf("... and %d more errors", len(errs)-max))
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n%w", path, errors.Join(errs...))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, nil
}

// LoadDir loads the lint units of one directory: the package (with its
// in-package test files) and, if present, the external test package. A
// directory with no Go files is an error — a lint target that silently
// checks nothing would let a typo in a package pattern pass CI.
func (l *Loader) LoadDir(dir, pkgPath string) ([]*Unit, error) {
	pd, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(pd.files)+len(pd.testFiles) == 0 {
		return nil, fmt.Errorf("lint: no Go files in lint target %s", dir)
	}
	// Split test files into in-package and external (package foo_test).
	pkgName := ""
	if len(pd.files) > 0 {
		pkgName = pd.files[0].Name.Name
	}
	var inPkg, external []*ast.File
	for _, f := range pd.testFiles {
		if pkgName != "" && f.Name.Name == pkgName+"_test" {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var units []*Unit
	xl := l
	if len(pd.files)+len(inPkg) > 0 {
		u, err := l.unit(pkgPath, append(append([]*ast.File{}, pd.files...), inPkg...), inPkg)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
		if len(inPkg) > 0 {
			xl = l.testVariant(pkgPath, u)
		}
	}
	if len(external) > 0 {
		// A distinct path: checking "p_test" while importing "p" must not
		// look like a self-import.
		u, err := xl.unit(pkgPath+"_test", external, external)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// testVariant returns a loader that resolves path to the test-augmented
// unit u, the package with its in-package _test.go files, as go test
// compiles an external test package against it: a helper that an
// export_test.go file adds is then in scope. As go test does, the variant
// checks again from source (sharing the parse) every module package that
// imports path, directly or not, so it agrees with the test on path's
// types; every other package keeps its one import view.
func (l *Loader) testVariant(path string, u *Unit) *Loader {
	return &Loader{
		Fset:    l.Fset,
		Root:    l.Root,
		Module:  l.Module,
		std:     l.std,
		imports: map[string]*types.Package{path: u.Pkg},
		loading: map[string]bool{},
		parsed:  l.parsed,
		base:    l,
		under:   path,
	}
}

// importsPath reports whether pkg imports the package at path, directly
// or through its imports.
func importsPath(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, p := range pkg.Imports() {
		if p.Path() == path {
			return true
		}
		if !seen[p] {
			seen[p] = true
			if importsPath(p, path, seen) {
				return true
			}
		}
	}
	return false
}

func (l *Loader) unit(path string, files, testFiles []*ast.File) (*Unit, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := l.typecheck(path, files, info)
	if err != nil {
		return nil, err
	}
	u := &Unit{Path: path, Files: files, Test: map[*ast.File]bool{}, Pkg: pkg, Info: info}
	for _, f := range testFiles {
		u.Test[f] = true
	}
	return u, nil
}

// PackageDirs walks the module tree and returns every directory holding a
// Go package, as module-root-relative slash paths, skipping testdata,
// vendor, and hidden directories. The driver expands "./..." with this.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
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
		if strings.HasSuffix(d.Name(), ".go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	return dirs, err
}
