package mobilstm_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sourceRuleAllow lists the findings the tree keeps on purpose, each
// keyed by "<file> <enclosing function> <rule>", with its reason.
var sourceRuleAllow = map[string]string{
	"internal/rng/rng.go Intn panic":                                   "rng is the dependency-free leaf package; importing tensor for Panicf would cycle through tensor's own tests, which seed via rng",
	"internal/equivtest/contract.go FuzzRunBatchEquivalence threshold": "a fuzzed range of DRS thresholds, not an operating point any consumer compares against",
}

// violation is one finding of a source rule.
type violation struct {
	pos                 token.Position
	file, fn, rule, msg string
}

// TestSourceRules enforces the rules that keep the paper's fixed numbers
// fixed — seeded draws (rand), one abort choke point for library code
// (panic), one home for the §VI-C constants (threshold) — over every Go
// file of the module. It fails on each finding the allow-list does not
// name, and on each entry that names none (docs/STATIC_ANALYSIS.md).
func TestSourceRules(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && slices.Contains([]string{".git", ".bench_build", "testdata"}, d.Name()) {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, v := range sourceRuleFindings(fset, filepath.ToSlash(path), f) {
			if key := v.file + " " + v.fn + " " + v.rule; sourceRuleAllow[key] != "" {
				used[key] = true
			} else {
				t.Errorf("%s: %s [%s rule, func %q]", v.pos, v.msg, v.rule, v.fn)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, key := range slices.Sorted(maps.Keys(sourceRuleAllow)) {
		if !used[key] {
			t.Errorf("allow-list entry %q matches no finding; remove it", key)
		}
	}
}

// TestSourceRulesFire checks each rule, and each exemption, on small
// in-memory files, one subtest per case.
func TestSourceRulesFire(t *testing.T) {
	for _, c := range []struct {
		name, path, src string
		want            []string // "<rule>:<line>"
	}{
		{"GlobalRandFires", "internal/bad/bad.go", "package bad\nimport \"math/rand\"\nfunc f() int { return rand.Intn(10) }\nfunc g() float64 { return rand.New(rand.NewSource(1)).Float64() }", []string{"rand:3", "rand:4", "rand:4"}},
		{"GlobalRandAliasedV2", "internal/bad/bad.go", "package bad\nimport mr \"math/rand/v2\"\nfunc f() int { return mr.IntN(3) }", []string{"rand:3"}},
		{"GlobalRandDotImport", "internal/bad/x_test.go", "package bad\nimport . \"math/rand\"\nfunc f() int { return Int() }", []string{"rand:2"}},
		{"GlobalRandSilentOnClean", "internal/ok/ok.go", "package ok\nfunc f(r interface{ Intn(int) int }) int { return r.Intn(10) }", nil},
		{"GlobalRandExemptsRNGPackage", "internal/rng/rng.go", "package rng\nimport \"math/rand\"\nfunc bridge() int { return rand.Int() }", nil},
		{"TestFileKeepsOnlyRandRule", "internal/ok/quick_test.go", "package ok\nimport (\"math/rand\"; \"reflect\")\nconst alpha = 0.3\nfunc hook(args []reflect.Value, _ *rand.Rand) { panic(\"a test may\") }\nvar _ rand.Source", nil},
		{"PanicPolicyFires", "internal/bad/bad.go", "package bad\nfunc f(n int) {\n\tif n < 0 {\n\t\tpanic(\"negative\")\n\t}\n}", []string{"panic:4"}},
		{"PanicPolicySilentOnHelperUse", "internal/ok/ok.go", "package ok\nfunc f(n int) {\n\tif n < 0 {\n\t\ttensor.Panicf(\"negative %d\", n)\n\t}\n}", nil},
		{"PanicPolicyIgnoresCmdPackages", "cmd/tool/main.go", "package main\nfunc main() { panic(\"cli abort is fine\") }", nil},
		{"PanicPolicyExemptsHelperFile", "internal/tensor/panic.go", "package tensor\nfunc Panicf(format string) { panic(format) }", nil},
		{"ThreshConstFires", "internal/bad/bad.go", "package bad\nconst alphaIntraMax = 0.45\nfunc apply(alphaInter float64) bool {\n\treturn alphaInter > 0.3\n}\nfunc ThresholdFor(set int) float64 {\n\treturn float64(set) * 0.045\n}", []string{"threshold:2", "threshold:4", "threshold:7"}},
		{"ThreshConstMasksInnerStatements", "internal/ok/ok.go", "package ok\nfunc f(alphaInter float64) float64 {\n\tif alphaInter > 0 {\n\t\treturn 2.5\n\t}\n\treturn 0\n}", nil},
		{"ThreshConstSilentOnClean", "internal/ok/ok.go", "package ok\nconst sets = 11\nfunc halve(x float64) float64 { return x * 0.5 }", nil},
		{"ThreshConstExemptsThresholdsPackage", "internal/thresholds/thresholds.go", "package thresholds\nconst AlphaIntraMax = 0.45", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, c.path, c.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, v := range sourceRuleFindings(fset, c.path, f) {
				got = append(got, v.rule+":"+strconv.Itoa(v.pos.Line))
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("%s:\n%s\nfindings %v, want %v", c.path, c.src, got, c.want)
			}
		})
	}
}

// sourceRuleFindings applies the three rules to one file, whose path
// is slash-separated and relative to the module root.
func sourceRuleFindings(fset *token.FileSet, path string, f *ast.File) []violation {
	test := strings.HasSuffix(path, "_test.go")
	panicRule := !test && strings.HasPrefix(path, "internal/") && path != "internal/tensor/panic.go"
	threshRule := !test && !strings.HasPrefix(path, "internal/thresholds/")
	var out []violation
	add := func(pos token.Pos, fn, rule, format string, args ...any) {
		out = append(out, violation{fset.Position(pos), path, fn, rule, fmt.Sprintf(format, args...)})
	}
	rands := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if (p != "math/rand" && p != "math/rand/v2") || strings.HasPrefix(path, "internal/rng/") {
			continue
		}
		name := "rand"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			add(imp.Pos(), "", "rand", "dot import of %s hides its draws; use the seeded internal/rng streams", p)
		}
		rands[name] = p
	}
	for _, decl := range f.Decls {
		fn := ""
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && rands[id.Name] != "" && n.Sel.Name != "Rand" && n.Sel.Name != "Source" {
					add(n.Pos(), fn, "rand", "%s.%s outside internal/rng breaks seeded determinism; use rng.New(seed)", rands[id.Name], n.Sel.Name)
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" && panicRule {
					add(n.Pos(), fn, "panic", "raw panic in a library package; abort through tensor.Panicf")
				}
			}
			return true
		})
		for _, lit := range threshDeclLits(decl) {
			if threshRule {
				add(lit.Pos(), fn, "threshold", "threshold literal %s; use a named constant from internal/thresholds", lit.Value)
			}
		}
	}
	return out
}

// threshIdent matches identifiers that talk about thresholds.
var threshIdent = regexp.MustCompile(`(?i)alpha|thresh`)

// threshDeclLits returns the threshold literals of one declaration:
// those of each value spec, or each statement, that mentions a
// threshold identifier, and all of a function's whose name does. An if
// or loop is scanned apart from its nested statements, so one matching
// line does not condemn a whole body.
func threshDeclLits(decl ast.Decl) []*ast.BasicLit {
	var out []*ast.BasicLit
	switch d := decl.(type) {
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				out = append(out, threshLits(vs, "", nil)...)
			}
		}
	case *ast.FuncDecl:
		near := ""
		if threshIdent.MatchString(d.Name.Name) {
			near = d.Name.Name
		}
		var walk func(ast.Stmt)
		walk = func(s ast.Stmt) {
			children := childStmts(s)
			out = append(out, threshLits(s, near, children)...)
			for _, c := range children {
				walk(c)
			}
		}
		if d.Body != nil {
			walk(d.Body)
		}
	}
	return out
}

// threshLits returns node's float literals outside the skipped
// statements, if near is set or node mentions a threshold identifier.
func threshLits(node ast.Node, near string, skip []ast.Stmt) []*ast.BasicLit {
	var lits []*ast.BasicLit
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.FLOAT && !slices.ContainsFunc(skip, func(s ast.Stmt) bool {
				return s.Pos() <= n.Pos() && n.Pos() < s.End()
			}) {
				lits = append(lits, n)
			}
		case *ast.Ident:
			if threshIdent.MatchString(n.Name) {
				near = n.Name
			}
		}
		return true
	})
	if near == "" {
		return nil
	}
	return lits
}

// childStmts returns the nested statement bodies of s.
func childStmts(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return s.List
	case *ast.IfStmt:
		if s.Else != nil {
			return []ast.Stmt{s.Body, s.Else}
		}
		return []ast.Stmt{s.Body}
	case *ast.ForStmt:
		return []ast.Stmt{s.Body}
	case *ast.RangeStmt:
		return []ast.Stmt{s.Body}
	case *ast.SwitchStmt:
		return []ast.Stmt{s.Body}
	case *ast.TypeSwitchStmt:
		return []ast.Stmt{s.Body}
	case *ast.SelectStmt:
		return []ast.Stmt{s.Body}
	case *ast.CaseClause:
		return s.Body
	case *ast.CommClause:
		return s.Body
	case *ast.LabeledStmt:
		return []ast.Stmt{s.Stmt}
	}
	return nil
}
