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

// --- fixture plumbing -------------------------------------------------

// reportStub is a miniature mobilstm/internal/report for maporder
// fixtures.
const reportStub = `package report

type Table struct{ rows [][]string }

func NewTable(title string, cols ...string) *Table { return &Table{} }

func (t *Table) AddRow(cells ...string) {}
`

// stubImporter resolves a fixed set of module-internal import paths
// from in-memory sources and everything else from the source importer.
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

// parseFixtureWith type-checks a fixture that imports the in-memory
// report stub.
func parseFixtureWith(t *testing.T, importPath, filename, src string) *Package {
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

func runFixtureWith(t *testing.T, a *Analyzer, importPath, filename, src string) []Finding {
	t.Helper()
	return a.Run(&Pass{Pkg: parseFixtureWith(t, importPath, filename, src)})
}

// --- float64leak on the dataflow engine -------------------------------

func TestFloat64LeakTaintTable(t *testing.T) {
	// Each case is the body of func f(x float32, n int) float64; want
	// lists the fixture lines (body starts at line 4) expected to fire.
	cases := []struct {
		name string
		body string
		want []int
	}{
		{
			name: "taint survives assignment chains",
			body: `
	y := float64(x)
	z := y
	w := z * 2
	return w`,
			want: []int{6},
		},
		{
			name: "reassignment kills taint",
			body: `
	y := float64(x)
	y = 1.5
	return y * 2`,
			want: nil,
		},
		{
			name: "float32 round-trip launders",
			body: `
	y := float64(float32(float64(x)))
	return y * 2`,
			want: []int{5},
		},
		{
			name: "taint joins across branches",
			body: `
	y := 1.0
	if n > 0 {
		y = float64(x)
	}
	return y * 2`,
			want: []int{8},
		},
		{
			name: "untainted on both branches stays clean",
			body: `
	y := 1.0
	if n > 0 {
		y = 2.0
	}
	return y * 2`,
			want: nil,
		},
		{
			name: "taint carries across loop iterations",
			body: `
	vals := []float64{1, 2}
	y := 1.0
	for i := 0; i < n; i++ {
		_ = y + vals[i]
		y = float64(x)
	}
	return 0`,
			want: []int{7},
		},
		{
			name: "taint from an outer iteration reaches nested loops",
			body: `
	y := 1.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			_ = y * 2
		}
		y = float64(x)
	}
	return 0`,
			want: []int{7},
		},
		{
			name: "compound assignment on a tainted accumulator",
			body: `
	acc := float64(x)
	acc += 1
	return 0`,
			want: []int{5},
		},
		{
			name: "function literals get fresh environments",
			body: `
	y := float64(x)
	f := func(y float64) float64 { return y * 2 }
	return f(y)`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf(`package fix

func f(x float32, n int) float64 {%s
}
`, tc.body)
			got := runFixture(t, Lookup("float64leak"), "mobilstm/internal/fix", "internal/fix/fix.go", src)
			wantLines(t, got, "float64leak", tc.want...)
		})
	}
}

// --- maporder ---------------------------------------------------------

func TestMapOrderFires(t *testing.T) {
	src := `package bad

import "mobilstm/internal/report"

func Fig(scores map[string]float64) *report.Table {
	t := report.NewTable("fig")
	for k, v := range scores {
		_ = k
		_ = v
		t.AddRow(k)
	}
	return t
}
`
	got := runFixtureWith(t, Lookup("maporder"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "maporder", 7)
	if !strings.Contains(got[0].Message, "sorted") {
		t.Errorf("finding should tell the reader to sort: %s", got[0].Message)
	}
}

func TestMapOrderSilentWithoutReport(t *testing.T) {
	// Per-key accumulation in a function that never touches report
	// output is order-insensitive.
	src := `package ok

func total(scores map[string]float64) float64 {
	var s float64
	for _, v := range scores {
		s += v
	}
	return s
}
`
	got := runFixtureWith(t, Lookup("maporder"), "mobilstm/internal/ok", "internal/ok/ok.go", src)
	wantLines(t, got, "maporder")
}

func TestMapOrderExemptsReportPackage(t *testing.T) {
	src := `package report

type Table struct{}

func render(cells map[string]string, t *Table) {
	for k := range cells {
		_ = k
	}
}
`
	got := runFixtureWith(t, Lookup("maporder"), "mobilstm/internal/report", "internal/report/render.go", src)
	wantLines(t, got, "maporder")
}

// --- loader test-package support --------------------------------------

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
	w := float64(Double(v)) * 2 // float64leak bait: must NOT fire in tests
	if w < 0 {
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
	// file; float64leak is not test-scoped, so its bait stays silent.
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

// --- whole-repo regression gate ---------------------------------------

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
