//go:build amd64

package tensor

import (
	"math"
	"testing"

	"mobilstm/internal/rng"
)

// TestBlockProbeOffBitwiseUnchanged: with hasBlockBody cleared — a CPU
// without AVX-512 — the canonical chain binds no block body, and
// PackedGemm and PackedGemmRows at the served shape (768×192, eleven
// inputs, masked and unmasked members mixed) produce the same bits as
// under the probe's own answer.
func TestBlockProbeOffBitwiseUnchanged(t *testing.T) {
	r := rng.New(0x4c)
	m := randMatrix(r, 768, 192)
	xs := make([]Vector, 11)
	skips := make([][]bool, len(xs))
	for b := range xs {
		xs[b] = randVector(r, m.Cols)
		if b%4 == 1 {
			skips[b] = randMask(r, 192, 0.4)
		}
	}
	run := func() (gemm, rows *Matrix) {
		gemm, rows = NewMatrix(len(xs), m.Rows), NewMatrix(len(xs), m.Rows)
		PackedGemm(gemm, m, xs)
		PackedGemmRows(rows, m, xs, masksOf(skips), -1)
		return gemm, rows
	}
	onGemm, onRows := run()
	prev := hasBlockBody
	hasBlockBody = false
	defer func() { hasBlockBody = prev }()
	if got := bodyName(KernelsFor(ChainSSE2).block); got != "blockRows" {
		t.Fatalf("probe off: the canonical chain binds %s", got)
	}
	offGemm, offRows := run()
	for i := range onGemm.Data {
		if math.Float32bits(onGemm.Data[i]) != math.Float32bits(offGemm.Data[i]) ||
			math.Float32bits(onRows.Data[i]) != math.Float32bits(offRows.Data[i]) {
			t.Fatalf("element %d: PackedGemm %v / %v, PackedGemmRows %v / %v (probe on / off)",
				i, onGemm.Data[i], offGemm.Data[i], onRows.Data[i], offRows.Data[i])
		}
	}
}
