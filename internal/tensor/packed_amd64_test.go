//go:build amd64

package tensor

import (
	"math"
	"slices"
	"testing"

	"mobilstm/internal/rng"
)

// TestBlockProbeOffBitwiseUnchanged: with hasBlockBody cleared — a CPU
// with AVX but without AVX-512 — the canonical chain binds the AVX
// one-input bodies and no block body, and every entry point at the
// served shape (768×192) produces the same bits as under the probe's
// own answer: PackedGemm and PackedGemmRows over eleven inputs, masked
// and unmasked members mixed, and every one-input entry point — Gemv,
// PackedGemv, PackedGemvRows under a skip mask, PackedGemmRows with
// every member masked, and PackedGemmKept of one input. On an AVX-512
// CPU that holds the AVX and AVX-512 one-input bodies to each other bit
// for bit.
func TestBlockProbeOffBitwiseUnchanged(t *testing.T) {
	const fill = -1
	r := rng.New(0x4c)
	m := randMatrix(r, 768, 192)
	xs := make([]Vector, 11)
	skips, masked := make([][]bool, len(xs)), make([][]bool, len(xs))
	for b := range xs {
		xs[b] = randVector(r, m.Cols)
		if b%4 == 1 {
			skips[b] = randMask(r, 192, 0.4)
		}
		masked[b] = randMask(r, 192, 0.64) // ~36 % kept, as at the served point
	}
	skip := randMask(r, 192, 0.64)
	kept := maskOf(slices.Repeat(skip, 4)).Kept
	segs := func() []Vector {
		return []Vector{NewVector(192), NewVector(192), NewVector(192), NewVector(192)}
	}
	run := func() map[string][]float32 {
		gemm, rows, allMasked := NewMatrix(len(xs), m.Rows), NewMatrix(len(xs), m.Rows), NewMatrix(len(xs), m.Rows)
		PackedGemm(gemm, m, xs)
		PackedGemmRows(rows, m, xs, masksOf(skips), fill)
		PackedGemmRows(allMasked, m, xs, masksOf(masked), fill)
		gemv := NewVector(m.Rows)
		Gemv(gemv, m, xs[0])
		packed, gemvRows := segs(), segs()
		PackedGemv(packed, m, xs[0])
		PackedGemvRows(gemvRows, m, xs[0], skip, fill)
		one := []Vector{slices.Repeat(Vector{fill}, m.Rows)}
		KernelsFor(ChainSSE2).PackedGemmKept(one, m, xs[:1], kept)
		return map[string][]float32{
			"PackedGemm": gemm.Data, "PackedGemmRows": rows.Data, "PackedGemmRows all masked": allMasked.Data,
			"Gemv": gemv, "PackedGemv": slices.Concat(packed...), "PackedGemvRows": slices.Concat(gemvRows...),
			"PackedGemmKept one input": one[0],
		}
	}
	k := KernelsFor(ChainSSE2)
	t.Logf("probe on: %v", boundBodies(k))
	on := run()
	prev := hasBlockBody
	hasBlockBody = false
	defer func() { hasBlockBody = prev }()
	k = KernelsFor(ChainSSE2)
	t.Logf("probe off: %v", boundBodies(k))
	if got := bodyName(k.block); got != "blockRows" {
		t.Fatalf("probe off: the canonical chain binds %s", got)
	}
	// A process forced generic binds the pure-Go spans on every leg.
	avx := quadProbe() && ActiveKernelChain() != ChainGeneric
	if got, want := bodyName(k.quad), withSpans("", avx, false)[1]; got != want {
		t.Fatalf("probe off: the canonical chain binds %s, want %s", got, want)
	}
	for name, off := range run() {
		for i, v := range on[name] {
			if math.Float32bits(v) != math.Float32bits(off[i]) {
				t.Fatalf("%s element %d: %v / %v (probe on / off)", name, i, v, off[i])
			}
		}
	}
}
