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

// tensorStub is a miniature mobilstm/internal/tensor: just enough
// surface for shapecheck fixtures to type-check against the real
// package's shape contracts.
const tensorStub = `package tensor

type Vector []float32

func NewVector(n int) Vector { return make(Vector, n) }

func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

type Matrix struct {
	Rows, Cols int
	Data       []float32
}

func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

func (m *Matrix) Clone() *Matrix { return &Matrix{Rows: m.Rows, Cols: m.Cols} }

func (m *Matrix) RowBlock(lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

func AbsRowSums(m *Matrix) Vector { return NewVector(m.Rows) }

func Pack(ms ...*Matrix) *Matrix { return ms[0] }

func Gemv(dst Vector, m *Matrix, x Vector)                                  {}
func PackedGemv(dsts []Vector, m *Matrix, x Vector)                         {}
func PackedGemvRows(dsts []Vector, m *Matrix, x Vector, s []bool, f float32) {}
func PackedGemm(dst *Matrix, m *Matrix, xs []Vector)                        {}
func PackedGemmRows(dst *Matrix, m *Matrix, xs []Vector, sk [][]bool, f float32) {}
func WidePackedGemv(dsts []Vector, m *Matrix, x Vector)                     {}
func WidePackedGemmRows(dst *Matrix, m *Matrix, xs []Vector, sk [][]bool, f float32) {}

type KernelChain uint32

type Kernels struct{}

func KernelsFor(c KernelChain) Kernels { return Kernels{} }

func (k Kernels) Gemv(dst Vector, m *Matrix, x Vector)                                  {}
func (k Kernels) PackedGemv(dsts []Vector, m *Matrix, x Vector)                         {}
func (k Kernels) PackedGemvRows(dsts []Vector, m *Matrix, x Vector, s []bool, f float32) {}
func (k Kernels) PackedGemm(dst *Matrix, m *Matrix, xs []Vector)                        {}
func (k Kernels) PackedGemmRows(dst *Matrix, m *Matrix, xs []Vector, sk [][]bool, f float32) {}
func Add(dst, a, b Vector)                                                  {}
func Mul(dst, a, b Vector)                                                  {}
func SigmoidVec(dst, x Vector)                                              {}
func TanhVec(dst, x Vector)                                                 {}
`

// kernelsStub is a miniature mobilstm/internal/kernels: the Builder
// cost constructors whose dimension contracts shapecheck enforces.
const kernelsStub = `package kernels

type KernelSpec struct{}

type DRSMode int

type Builder struct{}

func (b *Builder) DRS(h, trivial int) KernelSpec                         { return KernelSpec{} }
func (b *Builder) SgemvUfic(h, skipRows int, mode DRSMode) KernelSpec    { return KernelSpec{} }
func (b *Builder) SgemmTissueUfic(h, t, skipRows int) (KernelSpec, bool) { return KernelSpec{}, true }
func (b *Builder) SgemmWx(h, e, n int) KernelSpec                        { return KernelSpec{} }
func (b *Builder) RequestBatch(h, length, layers, batch int) []KernelSpec { return nil }
func (b *Builder) RequestBatchRagged(h, layers int, lens []int) []KernelSpec { return nil }
func (b *Builder) GRUDRS(h, trivial int) KernelSpec                       { return KernelSpec{} }
func (b *Builder) GRUSgemvUh(h, skipRows int, mode DRSMode) KernelSpec    { return KernelSpec{} }
func (b *Builder) GRUSgemmWx(h, e, n int) KernelSpec                      { return KernelSpec{} }
`

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
			"mobilstm/internal/tensor":  tensorStub,
			"mobilstm/internal/report":  reportStub,
			"mobilstm/internal/kernels": kernelsStub,
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
// tensor/report stubs.
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

// --- shapecheck -------------------------------------------------------

func TestShapeCheckFiresOnDimMismatch(t *testing.T) {
	// The seeded acceptance fixture: dst allocated h long against the
	// united 4h×e matrix.
	src := `package bad

import "mobilstm/internal/tensor"

func f(h, e int, x tensor.Vector) {
	U := tensor.NewMatrix(4*h, e)
	dst := tensor.NewVector(h)
	tensor.Gemv(dst, U, x)
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "shapecheck", 8)
	for _, want := range []string{"Gemv", "dst length", "h", "4*h"} {
		if !strings.Contains(got[0].Message, want) {
			t.Errorf("message should report the inferred shapes (%q): %s", want, got[0].Message)
		}
	}
}

func TestShapeCheckFiresOnPackedMismatch(t *testing.T) {
	// The seeded united-kernel fixture: a GRU-style 3h united matrix
	// driven into an LSTM-sized 4h destination.
	src := `package bad

import "mobilstm/internal/tensor"

func f(h, e int, xs []tensor.Vector) {
	W := tensor.Pack(tensor.NewMatrix(h, e), tensor.NewMatrix(h, e), tensor.NewMatrix(h, e))
	wx := tensor.NewMatrix(7, 4*h)
	tensor.PackedGemm(wx, W, xs)
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "shapecheck", 8)
	for _, want := range []string{"PackedGemm", "dst cols", "4*h", "united rows", "3*h"} {
		if !strings.Contains(got[0].Message, want) {
			t.Errorf("message should report the united shapes (%q): %s", want, got[0].Message)
		}
	}
}

func TestShapeCheckFiresOnBatchGemmMismatch(t *testing.T) {
	// The batch-B recurrent kernel driven with a GRU-sized 3h united
	// matrix into an LSTM-sized 4h destination, plus a skip-mask set
	// sized for a different batch.
	src := `package bad

import "mobilstm/internal/tensor"

func f(h int) {
	U := tensor.Pack(tensor.NewMatrix(h, h), tensor.NewMatrix(h, h), tensor.NewMatrix(h, h))
	out := tensor.NewMatrix(7, 4*h)
	xs := make([]tensor.Vector, 7)
	sk := make([][]bool, 9)
	tensor.PackedGemmRows(out, U, xs, sk, 0)
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "shapecheck", 10, 10)
	for _, want := range []string{"PackedGemmRows", "dst cols", "4*h", "united rows", "3*h"} {
		if !strings.Contains(got[0].Message, want) {
			t.Errorf("message should report the united shapes (%q): %s", want, got[0].Message)
		}
	}
	for _, want := range []string{"skips count", "9", "xs count"} {
		if !strings.Contains(got[1].Message, want) {
			t.Errorf("message should report the mask-set size (%q): %s", want, got[1].Message)
		}
	}
}

func TestShapeCheckFiresOnWideKernelMismatch(t *testing.T) {
	// The two wide entry points carry the same dimension contracts as
	// the canonical kernels; the switch must check them under their own
	// names.
	src := `package bad

import "mobilstm/internal/tensor"

func f(h, e int, x tensor.Vector) {
	U := tensor.NewMatrix(4*h, e)
	dsts := []tensor.Vector{tensor.NewVector(3 * h)}
	tensor.WidePackedGemv(dsts, U, x)
	W := tensor.Pack(tensor.NewMatrix(h, e), tensor.NewMatrix(h, e), tensor.NewMatrix(h, e))
	wx := tensor.NewMatrix(7, 4*h)
	xs := make([]tensor.Vector, 7)
	tensor.WidePackedGemmRows(wx, W, xs, nil, 0)
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "shapecheck", 8, 12)
	for _, want := range []string{"WidePackedGemv", "dst segment length", "3*h", "4*h"} {
		if !strings.Contains(got[0].Message, want) {
			t.Errorf("message should report the inferred shapes (%q): %s", want, got[0].Message)
		}
	}
	for _, want := range []string{"WidePackedGemmRows", "dst cols", "4*h", "united rows", "3*h"} {
		if !strings.Contains(got[1].Message, want) {
			t.Errorf("message should report the united shapes (%q): %s", want, got[1].Message)
		}
	}
}

func TestShapeCheckWideKernelClean(t *testing.T) {
	// Shape-consistent wide calls stay silent, including the batched
	// recurrent kernel with a per-member mask set.
	src := `package ok

import "mobilstm/internal/tensor"

func f(h, b int, x tensor.Vector) {
	uni := tensor.Pack(tensor.NewMatrix(h, h), tensor.NewMatrix(h, h),
		tensor.NewMatrix(h, h), tensor.NewMatrix(h, h))
	dsts := []tensor.Vector{tensor.NewVector(2 * h), tensor.NewVector(2 * h)}
	tensor.WidePackedGemv(dsts, uni, x)
	gather := make([]tensor.Vector, b)
	masks := make([][]bool, b)
	out := tensor.NewMatrix(b, 4*h)
	tensor.WidePackedGemmRows(out, uni, gather, masks, 0)
}
`
	if got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("consistent wide kernel calls must pass: %v", got)
	}
}

func TestShapeCheckSeesRunResolvedKernels(t *testing.T) {
	// The forward core calls its kernels as methods on the tensor.Kernels
	// value resolved once per run; those call sites carry the same
	// contracts as the package-level spellings. Seeded: the 4h-row united
	// matrix dotted into a 3h destination, and a 3h-column batch
	// destination, both through the resolved value — passed down to a
	// helper as the layer loops do.
	src := `package bad

import "mobilstm/internal/tensor"

func run(h int, x tensor.Vector, chain tensor.KernelChain) {
	layer(h, x, tensor.KernelsFor(chain))
}

func layer(h int, x tensor.Vector, ks tensor.Kernels) {
	U := tensor.Pack(tensor.NewMatrix(h, h), tensor.NewMatrix(h, h),
		tensor.NewMatrix(h, h), tensor.NewMatrix(h, h))
	ks.Gemv(tensor.NewVector(3*h), U, x)
	ks.Gemv(tensor.NewVector(4*h), U, x)
	xs := make([]tensor.Vector, 5)
	ks.PackedGemmRows(tensor.NewMatrix(5, 3*h), U, xs, nil, 0)
	ks.PackedGemm(tensor.NewMatrix(5, 4*h), U, xs)
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "shapecheck", 12, 15)
	for _, want := range []string{"Gemv", "dst length", "3*h", "m rows", "4*h"} {
		if !strings.Contains(got[0].Message, want) {
			t.Errorf("message should report the inferred shapes (%q): %s", want, got[0].Message)
		}
	}
}

func TestShapeCheckBatchArenaSlicingClean(t *testing.T) {
	// The arena pattern of the recurrent layer loop: per-slot gates and
	// masks carved out of flat slabs, the batched kernel views re-headed
	// over scratch storage. Everything is shape-consistent and must stay
	// silent — this is the fixture twin of the real group step
	// (forwardScratch.step).
	src := `package ok

import "mobilstm/internal/tensor"

func f(h, b int, U *tensor.Matrix, xs []tensor.Vector) {
	uni := tensor.Pack(tensor.NewMatrix(h, h), tensor.NewMatrix(h, h),
		tensor.NewMatrix(h, h), tensor.NewMatrix(h, h))
	maskBuf := make([]bool, b*h)
	masks := make([][]bool, b)
	gather := make([]tensor.Vector, b)
	for i := 0; i < b; i++ {
		masks[i] = maskBuf[i*h : (i+1)*h]
		gather[i] = tensor.NewVector(h)
	}
	out := tensor.NewMatrix(b, 4*h)
	tensor.PackedGemmRows(out, uni, gather, masks, 0)
	tensor.PackedGemmRows(out, uni, gather, nil, 0)
}
`
	if got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("consistent batch arena slicing must pass: %v", got)
	}
}

func TestShapeCheckTable(t *testing.T) {
	// Each case is the body of func f(h, e int, x, y tensor.Vector);
	// want lists the fixture lines (the first body statement is line 6)
	// expected to fire.
	cases := []struct {
		name string
		body string
		want []int
	}{
		{
			name: "clean pipeline with derived and allocated shapes",
			body: `
	U := tensor.NewMatrix(4*h, h)
	W := tensor.NewMatrix(4*h, e)
	hv := tensor.NewVector(h)
	gates := tensor.NewVector(4 * h)
	pre := tensor.NewVector(4 * h)
	tensor.Gemv(gates, U, hv)
	tensor.Gemv(pre, W, hv.Clone())
	tensor.Add(gates, gates, pre)
	row := U.Row(2)
	tensor.Mul(row, row, hv)`,
			want: nil,
		},
		{
			name: "gemv x against matrix cols",
			body: `
	U := tensor.NewMatrix(4*h, h)
	gates := tensor.NewVector(4 * h)
	wide := tensor.NewVector(2 * h)
	tensor.Gemv(gates, U, wide)`,
			want: []int{9},
		},
		{
			name: "element-wise lengths",
			body: `
	a := tensor.NewVector(h)
	b := tensor.NewVector(2 * h)
	tensor.Mul(a, a, b)
	tensor.SigmoidVec(a, b)`,
			want: []int{8, 9},
		},
		{
			name: "abs row sums and len() derive matching dims",
			body: `
	U := tensor.NewMatrix(4*h, h)
	d := tensor.AbsRowSums(U)
	gates := tensor.NewVector(U.Rows)
	tensor.Add(gates, gates, d)
	short := tensor.NewVector(len(d) / 2)
	_ = short`,
			want: nil,
		},
		{
			name: "incomparable bases stay silent",
			body: `
	U := tensor.NewMatrix(4*h, e)
	tensor.Gemv(x, U, y)`,
			want: nil,
		},
		{
			name: "reassigning the dimension variable kills stale shapes",
			body: `
	v := tensor.NewVector(h)
	h = 2 * h
	w := tensor.NewVector(h)
	tensor.Add(v, v, w)`,
			want: nil,
		},
		{
			name: "branch merge keeps agreeing shapes",
			body: `
	v := tensor.NewVector(h)
	if e > 0 {
		v = tensor.NewVector(h)
	}
	w := tensor.NewVector(2 * h)
	tensor.Add(v, v, w)`,
			want: []int{11},
		},
		{
			name: "branch merge drops disagreeing shapes",
			body: `
	v := tensor.NewVector(h)
	if e > 0 {
		v = tensor.NewVector(e)
	}
	w := tensor.NewVector(2 * h)
	tensor.Add(v, v, w)`,
			want: nil,
		},
		{
			name: "facts reach uses inside loops",
			body: `
	U := tensor.NewMatrix(4*h, h)
	hv := tensor.NewVector(h)
	for t := 0; t < e; t++ {
		tensor.Gemv(hv, U, hv)
	}`,
			want: []int{9},
		},
		{
			name: "facts reach uses inside nested loops, reported once",
			body: `
	U := tensor.NewMatrix(4*h, h)
	hv := tensor.NewVector(h)
	for t := 0; t < e; t++ {
		for s := 0; s < e; s++ {
			tensor.Gemv(hv, U, hv)
		}
	}`,
			want: []int{10},
		},
		{
			name: "united pack pipeline stays clean",
			body: `
	Wf := tensor.NewMatrix(h, e)
	Wi := tensor.NewMatrix(h, e)
	Wc := tensor.NewMatrix(h, e)
	Wo := tensor.NewMatrix(h, e)
	W := tensor.Pack(Wf, Wi, Wc, Wo)
	wx := tensor.NewMatrix(7, 4*h)
	var xs []tensor.Vector
	tensor.PackedGemm(wx, W, xs)
	ufic := W.RowBlock(h, 4*h)
	skip := make([]bool, h)
	var dsts []tensor.Vector
	tensor.PackedGemvRows(dsts, ufic, tensor.NewVector(e), skip, 0)`,
			want: nil,
		},
		{
			name: "packed gemm dst cols against united rows",
			body: `
	Wf := tensor.NewMatrix(h, e)
	Wi := tensor.NewMatrix(h, e)
	Wc := tensor.NewMatrix(h, e)
	W := tensor.Pack(Wf, Wi, Wc)
	bad := tensor.NewMatrix(7, 4*h)
	var xs []tensor.Vector
	tensor.PackedGemm(bad, W, xs)`,
			want: []int{12},
		},
		{
			name: "packed skip mask must tile the united matrix",
			body: `
	U := tensor.NewMatrix(4*h, h)
	ufic := U.RowBlock(h, 4*h)
	skip := make([]bool, 2*h)
	hv := tensor.NewVector(h)
	var dsts []tensor.Vector
	tensor.PackedGemvRows(dsts, ufic, hv, skip, 0)`,
			want: []int{11},
		},
		{
			name: "pack rejects disagreeing columns",
			body: `
	a := tensor.NewMatrix(h, e)
	b := tensor.NewMatrix(h, 2*e)
	u := tensor.Pack(a, b)
	_ = u`,
			want: []int{8},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf(`package fix

import "mobilstm/internal/tensor"

func f(h, e int, x, y tensor.Vector) {%s
}
`, tc.body)
			got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/fix", "internal/fix/fix.go", src)
			wantLines(t, got, "shapecheck", tc.want...)
		})
	}
}

func TestShapeCheckSilentOnRepoIdioms(t *testing.T) {
	// Struct-field matrices against vectors allocated from their Rows:
	// the derived rows(n.Head) base must match on both sides.
	src := `package fix

import "mobilstm/internal/tensor"

type net struct{ Head *tensor.Matrix }

func f(n *net, last tensor.Vector) tensor.Vector {
	logits := tensor.NewVector(n.Head.Rows)
	tensor.Gemv(logits, n.Head, last)
	return logits
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/fix", "internal/fix/fix.go", src)
	wantLines(t, got, "shapecheck")
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

// --- shapecheck: kernel contract table --------------------------------

func TestShapeCheckKernelContracts(t *testing.T) {
	// Definite violations of the Builder contract table: a DRS trivial
	// count above h, a skipRows above the 3h united-matrix bound, and
	// literal shape arguments below one.
	src := `package bad

import "mobilstm/internal/kernels"

func f(b *kernels.Builder, h int) {
	b.DRS(h, 2*h)
	b.SgemvUfic(h, 4*h, 0)
	b.SgemmTissueUfic(h, 4, 3*h)
	b.RequestBatch(h, 16, 2, 0)
	b.SgemmWx(0, h, 16)
	b.DRS(h, -1)
	b.RequestBatchRagged(h, 0, nil)
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "shapecheck", 6, 7, 9, 10, 11, 12)
	for _, want := range []string{"kernels.DRS", "trivial", "2*h", "1*(h)"} {
		if !strings.Contains(got[0].Message, want) {
			t.Errorf("message should state the contract (%q): %s", want, got[0].Message)
		}
	}
	if !strings.Contains(got[2].Message, "batch = 0") {
		t.Errorf("literal minimum violation should name the argument: %s", got[2].Message)
	}
}

func TestShapeCheckKernelContractsSilentWhenLegal(t *testing.T) {
	// Legal calls and dataflow-unknown arguments (the sched call sites,
	// where skip counts come from measured statistics) stay silent.
	src := `package ok

import "mobilstm/internal/kernels"

func measured() int { return 3 }

func f(b *kernels.Builder, h int) {
	b.DRS(h, h)
	b.SgemvUfic(h, 3*h, 0)
	b.SgemvUfic(h, measured(), 0)
	b.SgemmTissueUfic(h, 4, measured())
	b.RequestBatch(h, 16, 2, 4)
	b.RequestBatchRagged(h, 2, nil)
	b.SgemmWx(h, h, 16)
}
`
	if got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("legal and unknown kernel dims must pass: %v", got)
	}
}

func TestShapeCheckGRUKernelContracts(t *testing.T) {
	// The GRU cost constructors carry the same contract shape as the
	// LSTM ones: trivial/skip row counts bounded by h, literal dims >= 1.
	// The last three calls are legal and must stay silent.
	src := `package bad

import "mobilstm/internal/kernels"

func f(b *kernels.Builder, h int) {
	b.GRUDRS(h, 2*h)
	b.GRUSgemvUh(h, 2*h, 0)
	b.GRUSgemmWx(0, h, 16)
	b.GRUDRS(h, h)
	b.GRUSgemvUh(h, h, 0)
	b.GRUSgemmWx(h, h, 16)
}
`
	got := runFixtureWith(t, Lookup("shapecheck"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "shapecheck", 6, 7, 8)
}
