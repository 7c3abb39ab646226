// Package equivtest is the shared bitwise-equivalence harness behind
// the batched-forward contract: RunBatch output for member i must be
// bitwise identical to serial Run(seqs[i]) in every mode, at every
// GOMAXPROCS, cold and warm cache. The lstm, gru and serve tests all
// assert through these helpers so the contract reads the same — and
// fails the same way — everywhere.
//
// "Bitwise" is literal: vectors are compared by math.Float32bits, so a
// mismatch in NaN payload or signed zero fails even where == would
// pass. That is the strength of the contract — the batch path may not
// reassociate, fuse or reorder a single float32 operation.
package equivtest

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// Vectors fails the test unless got and want are bitwise identical.
// label names the batch member (or case) in the failure message.
func Vectors(tb testing.TB, label string, got, want tensor.Vector) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: logits length %d, serial %d", label, len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			tb.Fatalf("%s: logit %d batch %v (0x%08x) != serial %v (0x%08x)",
				label, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
}

// Batch fails the test unless every member of got is bitwise identical
// to its serial counterpart in want.
func Batch(tb testing.TB, label string, got, want []tensor.Vector) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d batch outputs for %d members", label, len(got), len(want))
	}
	for i := range got {
		Vectors(tb, labelMember(label, i), got[i], want[i])
	}
}

// Classes fails the test unless the batch class of every member equals
// its serial class.
func Classes(tb testing.TB, label string, got, want []int) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d batch classes for %d members", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			tb.Fatalf("%s member %d: batch class %d, serial class %d", label, i, got[i], want[i])
		}
	}
}

// ULPDistance returns the distance between a and b in float32 ULPs —
// the number of representable values between them (0 when bitwise
// equal, 1 for adjacent floats). Opposite signs measure through zero;
// any NaN or a sign-crossing overflow saturates to MaxUint32. The
// wide-chain drift report uses it to quantify how far the fast mode
// strays from the canonical chain.
func ULPDistance(a, b float32) uint32 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.MaxUint32
	}
	ai, bi := ulpIndex(a), ulpIndex(b)
	d := ai - bi
	if d < 0 {
		d = -d
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// ulpIndex maps a float32 onto the integer line where consecutive
// representable values differ by one: non-negative floats map to their
// bit pattern, negative floats to its negation, so distances across
// zero count both sides' ULPs (+0 and -0 coincide).
func ulpIndex(f float32) int64 {
	b := math.Float32bits(f)
	if b&(1<<31) != 0 {
		return -int64(b &^ (1 << 31))
	}
	return int64(b)
}

// MaxULP returns the largest ULPDistance over the element pairs of a
// and b — the drift between two same-shape results computed under
// different chains.
func MaxULP(tb testing.TB, label string, a, b tensor.Vector) uint32 {
	tb.Helper()
	if len(a) != len(b) {
		tb.Fatalf("%s: MaxULP over lengths %d and %d", label, len(a), len(b))
	}
	var max uint32
	for j := range a {
		if d := ULPDistance(a[j], b[j]); d > max {
			max = d
		}
	}
	return max
}

func labelMember(label string, i int) string {
	return label + " member " + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// RaggedLengths draws b sequence lengths in [1, maxLen], biased so at
// least two members differ whenever b > 1 and maxLen > 1 — a batch of
// equal lengths never exercises the active-set shrink.
func RaggedLengths(r *rng.RNG, b, maxLen int) []int {
	lens := make([]int, b)
	for i := range lens {
		lens[i] = 1 + r.Intn(maxLen)
	}
	if b > 1 && maxLen > 1 {
		allEq := true
		for _, ln := range lens[1:] {
			if ln != lens[0] {
				allEq = false
				break
			}
		}
		if allEq {
			lens[0] = 1 + lens[0]%maxLen // shift one member off the common length
		}
	}
	return lens
}

// UseChain switches the process-default kernel chain, the one chain
// selector a forward pass reads, to c for the rest of tb, and restores
// the previous default in tb.Cleanup. A subtest scopes the switch.
func UseChain(tb testing.TB, c tensor.KernelChain) {
	prev := tensor.ActiveKernelChain()
	tensor.SetKernelChain(c)
	tb.Cleanup(func() { tensor.SetKernelChain(prev) })
}

// Canonical is the canonical chain as this process binds it: the
// process default, or sse2 when that is the wide chain. A generic
// default stays, so that chain-matrix leg keeps the pure-Go bodies.
func Canonical() tensor.KernelChain {
	if c := tensor.ActiveKernelChain(); c != tensor.ChainAVX2 {
		return c
	}
	return tensor.ChainSSE2
}

// Main runs a forward test package and fails it if its tests leave the
// process-default chain other than MOBILSTM_KERNEL_CHAIN resolved it,
// so a leaked switch cannot turn later canonical runs wide.
func Main(m *testing.M) {
	start := tensor.ActiveKernelChain()
	code := m.Run()
	if end := tensor.ActiveKernelChain(); end != start {
		fmt.Fprintf(os.Stderr, "FAIL: kernel chain leaked: tests left the default at %v, %s set %v\n", end, tensor.KernelChainEnv, start)
		code = 1
	}
	os.Exit(code)
}

// Golden compares got with the lines of testdata/name, or rewrites the
// file when update is set. The pinned bits are recorded on amd64; other
// architectures may contract float32 multiply-adds, so they skip.
func Golden(t *testing.T, name string, got []string, update bool) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are recorded on amd64; other architectures may contract float32 multiply-adds")
	}
	path := filepath.Join("testdata", name)
	if update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines computed, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d drifted from the golden bits:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
