package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reportStub is a miniature mobilstm/internal/report for maporder
// fixtures.
const reportStub = `package report

type Table struct{ rows [][]string }

func NewTable(title string, cols ...string) *Table { return &Table{} }

func (t *Table) AddRow(cells ...string) {}
`

// stubImporter resolves a fixed set of module-internal import paths
// from in-memory sources and everything else from the source importer,
// so every fixture can import the report stub.
type stubImporter struct {
	fset *token.FileSet
	std  types.Importer
	srcs map[string]string
	pkgs map[string]*types.Package
}

func newStubImporter(fset *token.FileSet) *stubImporter {
	return &stubImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		srcs: map[string]string{
			"mobilstm/internal/report": reportStub,
		},
		pkgs: map[string]*types.Package{},
	}
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.pkgs[path]; ok {
		return p, nil
	}
	src, ok := si.srcs[path]
	if !ok {
		return si.std.Import(path)
	}
	f, err := parser.ParseFile(si.fset, path+"/stub.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	cfg := types.Config{Importer: si}
	p, err := cfg.Check(path, si.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	si.pkgs[path] = p
	return p, nil
}

// parseFixture type-checks one in-memory source file as a package with
// the given import path and file name (both matter: analyzers scope by
// package path and allowlist by file suffix).
func parseFixture(t *testing.T, importPath, filename, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := newInfo()
	cfg := types.Config{
		Importer: newStubImporter(fset),
		Error:    func(error) {}, // soft errors (unused vars) are fine in fixtures
	}
	pkgT, _ := cfg.Check(importPath, fset, []*ast.File{f}, info)
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      pkgT,
		Info:       info,
	}
}

// runFixture runs one analyzer over a fixture without suppression
// filtering.
func runFixture(t *testing.T, a *Analyzer, importPath, filename, src string) []Finding {
	t.Helper()
	return a.Run(&Pass{Pkg: parseFixture(t, importPath, filename, src)})
}

// wantLines asserts the findings land exactly on the given lines (in
// order of position).
func wantLines(t *testing.T, findings []Finding, analyzer string, lines ...int) {
	t.Helper()
	if len(findings) != len(lines) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(lines), findings)
	}
	for i, f := range findings {
		if f.Analyzer != analyzer {
			t.Errorf("finding %d analyzer = %q, want %q", i, f.Analyzer, analyzer)
		}
		if f.Pos.Line != lines[i] {
			t.Errorf("finding %d at line %d, want %d (%s)", i, f.Pos.Line, lines[i], f.Message)
		}
	}
}

func TestRegistryHasAllAnalyzers(t *testing.T) {
	want := []string{"globalrand", "maporder", "panicpolicy", "threshconst"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no doc", a.Name)
		}
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%q) did not round-trip", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown analyzer should be nil")
	}
}

func TestSuppressionLineDirectives(t *testing.T) {
	src := `package foo

func a(n int) {
	//lint:ignore panicpolicy fixture: deliberate own-line suppression
	panic("a")
}

func b(n int) {
	panic("b") //lint:ignore panicpolicy fixture: same-line suppression
}

func c(n int) {
	panic("c")
}

func d(n int) {
	//lint:ignore globalrand reason names the wrong analyzer
	panic("d")
}
`
	pkg := parseFixture(t, "mobilstm/internal/foo", "internal/foo/foo.go", src)
	got := Analyze([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy")})
	wantLines(t, got, "panicpolicy", 13, 18)
}

func TestSuppressionFileDirective(t *testing.T) {
	src := `package foo

//lint:file-ignore panicpolicy fixture: whole file is exempt

func a() { panic("a") }

func b() { panic("b") }
`
	pkg := parseFixture(t, "mobilstm/internal/foo", "internal/foo/foo.go", src)
	if got := Analyze([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy")}); len(got) != 0 {
		t.Fatalf("file-ignore should suppress everything, got %v", got)
	}
}

func TestSuppressionAnalyzerList(t *testing.T) {
	src := `package foo

func a() {
	//lint:ignore panicpolicy,globalrand fixture: list form covers both
	panic("a")
}
`
	pkg := parseFixture(t, "mobilstm/internal/foo", "internal/foo/foo.go", src)
	if got := Analyze([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy")}); len(got) != 0 {
		t.Fatalf("comma list should suppress, got %v", got)
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	src := `package foo

func a() {
	//lint:ignore panicpolicy
	panic("a")
}

//lint:ignore shapechek misspelled, so it suppresses nothing
func b() {}
`
	pkg := parseFixture(t, "mobilstm/internal/foo", "internal/foo/foo.go", src)
	// The unknown name is reported even though the run does not enable
	// the analyzer it was meant to be.
	got := Analyze([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy")})
	if len(got) != 3 {
		t.Fatalf("want malformed-directive finding, unsuppressed panic and unknown-analyzer finding, got %v", got)
	}
	if got[0].Analyzer != "ignore" {
		t.Errorf("first finding analyzer = %q, want \"ignore\"", got[0].Analyzer)
	}
	if got[1].Analyzer != "panicpolicy" {
		t.Errorf("second finding analyzer = %q, want \"panicpolicy\" (reasonless directive must not suppress)", got[1].Analyzer)
	}
	if got[2].Analyzer != "ignore" || got[2].Pos.Line != 8 || !strings.Contains(got[2].Message, `no registered analyzer "shapechek"`) {
		t.Errorf("third finding = %v, want the unknown analyzer reported at line 8", got[2])
	}
}

func TestAnalyzeSortsAcrossAnalyzers(t *testing.T) {
	src := `package foo

const alphaMax = 0.5

func a() { panic("a") }
`
	pkg := parseFixture(t, "mobilstm/internal/foo", "internal/foo/foo.go", src)
	got := Analyze([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy"), Lookup("threshconst")})
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got %v", got)
	}
	if got[0].Pos.Line != 3 || got[1].Pos.Line != 5 {
		t.Errorf("findings not position-sorted: %v", got)
	}
}

func TestStaleSuppressionReported(t *testing.T) {
	src := `package foo

func a() {
	//lint:ignore panicpolicy fixture: matches a finding
	panic("a")
}

func b(n int) int {
	//lint:ignore panicpolicy fixture: nothing here fires
	return n + 1
}

func c(n int) int {
	//lint:ignore globalrand fixture: analyzer absent from this run
	return n + 1
}
`
	pkg := parseFixture(t, "mobilstm/internal/foo", "internal/foo/foo.go", src)
	// b's directive suppresses nothing and panicpolicy ran: stale.
	// a's matched; c names an analyzer outside the run: exempt.
	got := Analyze([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy")})
	wantLines(t, got, "stale", 9)
	if got := AnalyzeOptions([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy")}, Options{}); len(got) != 0 {
		t.Fatalf("Stale:false must not report stale directives, got %v", got)
	}
}

func TestStaleStarRequiresFullRegistry(t *testing.T) {
	src := `package foo

func a(n int) int {
	//lint:ignore * fixture: blanket directive with nothing to suppress
	return n + 1
}
`
	pkg := parseFixture(t, "mobilstm/internal/foo", "internal/foo/foo.go", src)
	if got := Analyze([]*Package{pkg}, []*Analyzer{Lookup("panicpolicy")}); len(got) != 0 {
		t.Fatalf("a * directive is unjudgeable under a partial run, got %v", got)
	}
	got := Analyze([]*Package{pkg}, All())
	wantLines(t, got, "stale", 4)
}

func TestNewLoaderFindsModule(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "mobilstm" {
		t.Errorf("ModulePath = %q, want mobilstm", l.ModulePath)
	}
}

// writeTestModule lays out a throwaway module with in-package and
// external test files exercising the test-scoped analyzers.
func writeTestModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"internal/foo/foo.go": `package foo

func Double(x float32) float32 { return 2 * x }
`,
		"internal/foo/foo_test.go": `package foo

import (
	"math/rand"
	"testing"
)

func TestDouble(t *testing.T) {
	v := float32(rand.Intn(3))
	alpha := 0.5 // threshconst bait: must NOT fire in tests
	if float64(Double(v)) < alpha {
		panic("negative")
	}
}
`,
		"internal/foo/export_test.go": `package foo_test

import "testing"

func TestExternal(t *testing.T) {
	t.Log("xtest package loads too")
}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoaderIncludeTests(t *testing.T) {
	root := writeTestModule(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.IncludeTests = true
	pkgs, err := l.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	base := byPath["tmpmod/internal/foo"]
	tests := byPath["tmpmod/internal/foo [tests]"]
	xtests := byPath["tmpmod/internal/foo_test"]
	if base == nil || tests == nil || xtests == nil {
		t.Fatalf("want base, [tests] and _test packages, got %v", keysOf(byPath))
	}
	if base.ForTest != "" {
		t.Errorf("base package ForTest = %q, want empty", base.ForTest)
	}
	for _, p := range []*Package{tests, xtests} {
		if p.ForTest != "tmpmod/internal/foo" {
			t.Errorf("%s ForTest = %q, want tmpmod/internal/foo", p.ImportPath, p.ForTest)
		}
		if p.ScopePath() != "tmpmod/internal/foo" {
			t.Errorf("%s ScopePath = %q", p.ImportPath, p.ScopePath())
		}
		for _, terr := range p.TypeErrors {
			t.Errorf("%s type error: %v", p.ImportPath, terr)
		}
	}
	// The test package carries only the test files — the base sources
	// are type-checked with them but must not be re-analyzed.
	if len(tests.Files) != 1 {
		t.Fatalf("[tests] package has %d files, want 1 (only _test.go)", len(tests.Files))
	}

	findings := Analyze(pkgs, All())
	var names []string
	for _, f := range findings {
		names = append(names, f.Analyzer)
	}
	// globalrand (import + call) and panicpolicy fire inside the test
	// file; threshconst is not test-scoped, so its bait stays silent.
	want := []string{"globalrand", "globalrand", "panicpolicy"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("test-package findings = %v (%v), want analyzers %v", names, findings, want)
	}
}

func TestLoaderExcludesTestsByDefault(t *testing.T) {
	root := writeTestModule(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		if p.ForTest != "" || strings.Contains(p.ImportPath, "test") {
			t.Errorf("test package %s loaded without IncludeTests", p.ImportPath)
		}
	}
}

func keysOf(m map[string]*Package) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRepoLintClean runs the full analyzer suite (test packages
// included) over the module itself: the tree must stay lint-clean, so
// any PR that introduces a finding — or an unreasoned suppression —
// fails here before CI even reaches the mobilstm-lint step.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; run without -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.IncludeTests = true
	pkgs, err := l.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.ImportPath, terr)
		}
	}
	findings := Analyze(pkgs, All())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("repo is not lint-clean: %d finding(s); fix them or add //lint:ignore with a reason", len(findings))
	}
}
