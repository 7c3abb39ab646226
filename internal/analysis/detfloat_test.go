package analysis

import (
	"strings"
	"testing"
)

// --- detfloat ---------------------------------------------------------

func TestDetFloatFlagsReductions(t *testing.T) {
	src := `package bad

func Sum(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}

func Fma(a, b []float32) float32 {
	var s float32
	for i := range a {
		s = s + a[i]*b[i]
	}
	return s
}

func Elementwise(dst, a []float32) {
	for i := range dst {
		dst[i] += a[i]
	}
}

func Wide(xs []float32) float32 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return float32(s)
}

func LoopLocal(xs []float32) {
	for i := range xs {
		var t float32
		t += xs[i]
		_ = t
	}
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "detfloat", 6, 14)
	if !strings.Contains(got[1].Message, "FMA-shaped") {
		t.Errorf("multiply-accumulate should be called out as FMA-shaped: %s", got[1].Message)
	}
	if !strings.Contains(got[0].Message, "serial-equivalence") {
		t.Errorf("message should name the contract: %s", got[0].Message)
	}
}

// TestDetFloatExemptsCanonicalChain: dotRowGeneric in the tensor
// package IS the contract; the same loop under any other name is not.
func TestDetFloatExemptsCanonicalChain(t *testing.T) {
	src := `package tensor

func dotRowGeneric(row, x []float32) float32 {
	var s float32
	for i := range row {
		s += row[i] * x[i]
	}
	return s
}

func Sum(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstmfix/internal/tensor", "internal/tensor/kernel.go", src)
	wantLines(t, got, "detfloat", 14)
}

// TestDetFloatFlagsCallShapedFolds: s = f(..., s) is a serial reduction
// through a call — the shape of math.FMA wrappers — and is flagged like
// any other accumulation when it appears outside the sanctioned chains.
func TestDetFloatFlagsCallShapedFolds(t *testing.T) {
	src := `package bad

import "math"

func fold(a, b, acc float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(acc)))
}

func Dot(row, x []float32) float32 {
	var s float32
	for i := range row {
		s = fold(row[i], x[i], s)
	}
	return s
}

func Fresh(row, x []float32) []float32 {
	out := make([]float32, len(row))
	for i := range row {
		out[i] = fold(row[i], x[i], 0)
	}
	return out
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "detfloat", 12)
	if !strings.Contains(got[0].Message, "call-shaped") {
		t.Errorf("call fold should be called out as call-shaped: %s", got[0].Message)
	}
}

// TestDetFloatExemptsWideChain: dotRowWideGeneric is the second
// sanctioned chain (the wide FMA fold behind KernelChain); the same
// loop under any other name is still a violation.
func TestDetFloatExemptsWideChain(t *testing.T) {
	src := `package tensor

import "math"

func fma32(a, b, acc float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(acc)))
}

func dotRowWideGeneric(row, x []float32) float32 {
	var s float32
	for i := range row {
		s = fma32(row[i], x[i], s)
	}
	return s
}

func dotRowWider(row, x []float32) float32 {
	var s float32
	for i := range row {
		s = fma32(row[i], x[i], s)
	}
	return s
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstmfix/internal/tensor", "internal/tensor/kernel.go", src)
	wantLines(t, got, "detfloat", 20)
}
