package analysis

import (
	"strings"
	"testing"
)

// Each analyzer gets at least one violating fixture (asserting the
// exact finding lines) and one clean fixture (asserting silence),
// plus its exemption path (allowlisted file or package).

func TestGlobalRandFires(t *testing.T) {
	src := `package bad

import "math/rand"

func f() int { return rand.Intn(10) }

func g() float64 { return rand.New(rand.NewSource(1)).Float64() }
`
	got := runFixture(t, Lookup("globalrand"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "globalrand", 3, 5, 7, 7)
	if !strings.Contains(got[0].Message, "math/rand") {
		t.Errorf("import finding should name the package: %s", got[0].Message)
	}
	if !strings.Contains(got[2].Message, "generator constructor") {
		t.Errorf("rand.New should be reported as a constructor: %s", got[2].Message)
	}
}

func TestGlobalRandAliasedV2(t *testing.T) {
	src := `package bad

import mr "math/rand/v2"

func f() int { return mr.IntN(3) }
`
	got := runFixture(t, Lookup("globalrand"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "globalrand", 3, 5)
}

func TestGlobalRandSilentOnClean(t *testing.T) {
	src := `package ok

func f(r interface{ Intn(int) int }) int { return r.Intn(10) }
`
	if got := runFixture(t, Lookup("globalrand"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("clean package flagged: %v", got)
	}
}

func TestGlobalRandExemptsRNGPackage(t *testing.T) {
	src := `package rng

import "math/rand"

func bridge() int { return rand.Int() }
`
	if got := runFixture(t, Lookup("globalrand"), "mobilstm/internal/rng", "internal/rng/rng.go", src); len(got) != 0 {
		t.Fatalf("internal/rng must be exempt: %v", got)
	}
}

func TestFloat64LeakFires(t *testing.T) {
	src := `package bad

import "math"

func f(x float32, alpha float64) bool {
	y := float64(x) * 2
	var acc float64
	acc += float64(x)
	_ = y + acc
	_ = math.Exp(float64(x))
	return float64(x) < alpha
}
`
	got := runFixture(t, Lookup("float64leak"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	// Line 9 (`_ = y + acc`) fires too now that taint flows through the
	// locals y and acc instead of stopping at the conversion sites.
	wantLines(t, got, "float64leak", 6, 8, 9, 10, 11)
	if !strings.Contains(got[4].Message, "comparison") {
		t.Errorf("threshold compare should be reported as a comparison: %s", got[4].Message)
	}
}

func TestFloat64LeakSilentOnClean(t *testing.T) {
	src := `package ok

func consume(v float64) {}

func g(x float32, n int) float64 {
	y := float64(x)
	consume(y)
	z := float64(n) * 2.0
	w := z + 1
	return w
}
`
	if got := runFixture(t, Lookup("float64leak"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("boundary conversions and int origins must pass: %v", got)
	}
}

func TestFloat64LeakAllowsActivationFile(t *testing.T) {
	src := `package tensor

import "math"

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
`
	got := runFixture(t, Lookup("float64leak"), "mobilstm/internal/tensor",
		"mobilstm/internal/tensor/activation.go", src)
	if len(got) != 0 {
		t.Fatalf("activation.go is the designated float64 home: %v", got)
	}
}

func TestPanicPolicyFires(t *testing.T) {
	src := `package bad

func f(n int) {
	if n < 0 {
		panic("negative")
	}
}
`
	got := runFixture(t, Lookup("panicpolicy"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "panicpolicy", 5)
	if !strings.Contains(got[0].Message, "tensor.Panicf") {
		t.Errorf("finding should point at the helper: %s", got[0].Message)
	}
}

func TestPanicPolicySilentOnHelperUse(t *testing.T) {
	src := `package ok

func Panicf(format string, args ...any) {}

func f(n int) {
	if n < 0 {
		Panicf("negative %d", n)
	}
}
`
	if got := runFixture(t, Lookup("panicpolicy"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("Panicf use flagged: %v", got)
	}
}

func TestPanicPolicyIgnoresCmdPackages(t *testing.T) {
	src := `package main

func main() { panic("cli abort is fine") }
`
	if got := runFixture(t, Lookup("panicpolicy"), "mobilstm/cmd/tool", "cmd/tool/main.go", src); len(got) != 0 {
		t.Fatalf("cmd/* is outside the policy: %v", got)
	}
}

func TestPanicPolicyExemptsHelperFile(t *testing.T) {
	src := `package tensor

import "fmt"

func Panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}
`
	got := runFixture(t, Lookup("panicpolicy"), "mobilstm/internal/tensor",
		"mobilstm/internal/tensor/panic.go", src)
	if len(got) != 0 {
		t.Fatalf("the helper's own panic is the one exemption: %v", got)
	}
}

func TestThreshConstFires(t *testing.T) {
	src := `package bad

const alphaIntraMax = 0.45

func apply(alphaInter float64) bool {
	return alphaInter > 0.3
}

func ThresholdFor(set int) float64 {
	return float64(set) * 0.045
}
`
	got := runFixture(t, Lookup("threshconst"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "threshconst", 3, 6, 10)
	if !strings.Contains(got[0].Message, "internal/thresholds") {
		t.Errorf("finding should point at the constants home: %s", got[0].Message)
	}
}

func TestThreshConstMasksInnerStatements(t *testing.T) {
	// The alpha ident in the if condition must not condemn literals in
	// the nested block, and vice versa.
	src := `package ok

func f(alphaInter float64) float64 {
	if alphaInter > 0 {
		return 2.5
	}
	return 0
}
`
	if got := runFixture(t, Lookup("threshconst"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("nested-block literal wrongly condemned: %v", got)
	}
}

func TestThreshConstSilentOnClean(t *testing.T) {
	src := `package ok

const sets = 11

func halve(x float64) float64 {
	return x * 0.5
}
`
	if got := runFixture(t, Lookup("threshconst"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("clean package flagged: %v", got)
	}
}

func TestThreshConstExemptsThresholdsPackage(t *testing.T) {
	src := `package thresholds

const AlphaIntraMax = 0.45
`
	got := runFixture(t, Lookup("threshconst"), "mobilstm/internal/thresholds",
		"internal/thresholds/thresholds.go", src)
	if len(got) != 0 {
		t.Fatalf("internal/thresholds is the designated home: %v", got)
	}
}
