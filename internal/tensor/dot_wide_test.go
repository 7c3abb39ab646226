package tensor

import (
	"math"
	"testing"

	"mobilstm/internal/rng"
)

// TestDotRowWideMatchesGeneric pins the body ChainAVX2 binds (AVX2+FMA
// assembly on capable amd64, the Go wide chain elsewhere) to the wide
// chain definition in dotRowWideGeneric, bitwise, across the
// 32-float block boundaries, remainders, and the empty row. On a CPU
// without the wide body both sides are the same function and the test
// degenerates to a self-check — the assembly half of the contract is
// exercised wherever CI has AVX2.
func TestDotRowWideMatchesGeneric(t *testing.T) {
	r := rng.New(0x71)
	dotRowWide := KernelsFor(ChainAVX2).dot
	sizes := []int{0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 95, 96, 97, 100, 127, 128, 129, 192, 650}
	for _, n := range sizes {
		row := make([]float32, n)
		x := make([]float32, n+3) // x may be longer than row; only x[:n] is read
		for i := range row {
			row[i] = float32(r.Norm())
		}
		for i := range x {
			x[i] = float32(r.Norm())
		}
		got := dotRowWide(row, x)
		want := dotRowWideGeneric(row, x)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("n=%d: dotRowWide=%v dotRowWideGeneric=%v", n, got, want)
		}
	}
}

// TestDotRowWideFusesProducts pins the property that separates the two
// chains: a wide-chain product reaches the accumulator without
// intermediate rounding. With v = 1+2^-12 and a 2^-24 residue already
// in the accumulator, v·v's exact tail (2^-24) combines with the
// residue to a representable 2^-23 under a single rounding, while the
// canonical chain rounds v·v first (tie-to-even drops the tail) and
// then loses the residue to a second tie. The chains MUST disagree
// here — this is the documented ULP drift, not a bug.
func TestDotRowWideFusesProducts(t *testing.T) {
	v := float32(1) + float32(1)/4096 // v² = 1 + 2^-11 + 2^-24 exactly (25 bits)
	eps := float32(1) / (1 << 24)
	row := []float32{eps, v}
	x := []float32{1, v}
	wide := KernelsFor(ChainAVX2).dot(row, x)
	canon := KernelsFor(ChainSSE2).dot(row, x)
	fused := float32(float64(eps) + float64(v)*float64(v)) // one rounding, the wide order
	if math.Float32bits(wide) != math.Float32bits(fused) {
		t.Fatalf("wide dot = %v (%#08x), want single-rounded %v (%#08x)",
			wide, math.Float32bits(wide), fused, math.Float32bits(fused))
	}
	if math.Float32bits(wide) == math.Float32bits(canon) {
		t.Fatalf("wide chain matched the canonical chain (%v); expected the fused tail to survive", canon)
	}
}
