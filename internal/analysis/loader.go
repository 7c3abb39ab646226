package analysis

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

// Package is one parsed and type-checked package of the module. With
// Loader.IncludeTests, _test.go files load as separate Package values
// (ForTest non-empty): in-package tests are type-checked together with
// the base sources but carry only the test files in Files, so findings
// never duplicate across the base and test passes; external _test
// packages stand alone.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// ForTest is the import path of the package under test when this
	// Package holds _test.go files, and "" for ordinary packages.
	ForTest string
	// TypeErrors holds any type-checker diagnostics. The module is
	// expected to compile, so these normally stay empty; analyzers
	// that need type information degrade gracefully when they don't.
	TypeErrors []error
}

// ScopePath returns the import path analyzers should use for
// package-scoped policy decisions (exemption homes, internal/ rules):
// for a test package, the path of the package under test.
func (p *Package) ScopePath() string {
	if p.ForTest != "" {
		return p.ForTest
	}
	return p.ImportPath
}

// Pass is the per-package unit of work handed to an analyzer.
type Pass struct {
	Pkg *Package
}

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// Position resolves a token.Pos.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Pkg.Fset.Position(pos)
}

// Loader walks a module from its go.mod root, parses every non-test
// package, and type-checks them in dependency order. It is stdlib-only:
// module packages are discovered with a directory walk and parsed with
// go/parser; standard-library dependencies are type-checked from source
// via go/importer.
type Loader struct {
	ModulePath string
	Root       string
	// IncludeTests adds _test.go packages to Load's result. Test
	// packages load in a second pass, after every base package is
	// type-checked and memoized, so a test file importing a sibling
	// that imports the package under test cannot report a false cycle.
	IncludeTests bool

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package // by import path
	stk  []string            // import stack for cycle reporting
}

// NewLoader locates the module root at or above dir and reads the
// module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		Root:       root,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Load parses and type-checks every package of the module, returned in
// deterministic (import path) order.
func (l *Loader) Load() ([]*Package, error) {
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	if l.IncludeTests {
		for _, dir := range dirs {
			tps, err := l.loadTestPackages(dir)
			if err != nil {
				return nil, err
			}
			out = append(out, tps...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// packageDirs walks the module tree for directories containing non-test
// Go files.
func (l *Loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if goSourceFile(e.Name()) || (l.IncludeTests && strings.HasSuffix(e.Name(), "_test.go")) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func goSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseFiles parses the named files of dir in sorted order.
func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	var files []*ast.File
	for _, name := range sorted {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loadTestPackages builds the test packages of dir: the in-package
// tests (type-checked against the already-loaded base sources, but
// carrying only the test files) and the external _test package.
func (l *Loader) loadTestPackages(dir string) ([]*Package, error) {
	ip, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); nogo {
			return nil, nil
		}
		return nil, err
	}
	base := l.pkgs[ip]
	var out []*Package
	if len(bp.TestGoFiles) > 0 {
		testFiles, err := l.parseFiles(dir, bp.TestGoFiles)
		if err != nil {
			return nil, err
		}
		pkg := &Package{
			ImportPath: ip + " [tests]",
			Dir:        dir,
			Fset:       l.fset,
			Files:      testFiles,
			Info:       newInfo(),
			ForTest:    ip,
		}
		all := testFiles
		if base != nil {
			all = append(append([]*ast.File(nil), base.Files...), testFiles...)
		}
		cfg := types.Config{
			Importer: l,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		pkg.Types, _ = cfg.Check(ip, l.fset, all, pkg.Info)
		out = append(out, pkg)
	}
	if len(bp.XTestGoFiles) > 0 {
		xFiles, err := l.parseFiles(dir, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		pkg := &Package{
			ImportPath: ip + "_test",
			Dir:        dir,
			Fset:       l.fset,
			Files:      xFiles,
			Info:       newInfo(),
			ForTest:    ip,
		}
		cfg := types.Config{
			Importer: l,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		pkg.Types, _ = cfg.Check(ip+"_test", l.fset, xFiles, pkg.Info)
		out = append(out, pkg)
	}
	return out, nil
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (memoized).
func (l *Loader) loadDir(dir string) (*Package, error) {
	ip, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	for _, s := range l.stk {
		if s == ip {
			return nil, fmt.Errorf("analysis: import cycle through %s", ip)
		}
	}
	l.stk = append(l.stk, ip)
	defer func() { l.stk = l.stk[:len(l.stk)-1] }()

	// go/build applies the usual file constraints (build tags, GOOS).
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); nogo {
			return nil, nil
		}
		return nil, err
	}
	// A directory holding only _test.go files has no base package;
	// loadTestPackages picks it up when IncludeTests is set.
	if len(bp.GoFiles) == 0 {
		return nil, nil
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		ImportPath: ip,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Info:       newInfo(),
	}
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Type errors are collected, not fatal: the repo is expected to
	// compile, and a partial Info still serves the analyzers.
	pkg.Types, _ = cfg.Check(ip, l.fset, files, pkg.Info)
	l.pkgs[ip] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths resolve
// through the loader, everything else through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("analysis: cannot type-check %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// newInfo allocates the full types.Info record set the analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
