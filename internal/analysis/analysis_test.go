package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

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
		Importer: importer.ForCompiler(fset, "source", nil),
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
	want := []string{"detfloat", "float64leak", "globalrand", "maporder", "panicpolicy", "threshconst"}
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
