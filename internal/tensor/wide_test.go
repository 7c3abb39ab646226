package tensor

import (
	"slices"
	"testing"

	"mobilstm/internal/rng"
)

// The wide chain's equivalence contract under its historical test
// names: each is the shared contract body of packed_test.go bound to
// ChainAVX2 and held to dotRowWideGeneric — wide-vs-wide, at any
// GOMAXPROCS and any batch B.

func onWideChain(t *testing.T, body func(*testing.T, Kernels, rowBodyFn)) {
	body(t, KernelsFor(ChainAVX2), dotRowWideGeneric)
}

func TestWideGemvBitwiseEqualsWideRef(t *testing.T) { onWideChain(t, gemvEqualsRowBody) }
func TestWidePackedGemvBitwiseEqualsWideGemv(t *testing.T) {
	onWideChain(t, packedGemvEqualsPerGate)
}
func TestWidePackedGemvRowsBitwiseEqualsWideRef(t *testing.T) {
	onWideChain(t, packedGemvRowsEqualsRowBody)
}
func TestWidePackedGemmBitwiseAtAnyGOMAXPROCS(t *testing.T) { onWideChain(t, packedGemmEqualsGemv) }
func TestWidePackedGemmRowsBitwiseAtAnyGOMAXPROCS(t *testing.T) {
	onWideChain(t, packedGemmRowsEqualsPerMember)
}

// TestEntryPointsBindTheirChain: the package-level kernels are the
// canonical binding's methods and the two Wide* spellings the wide
// binding's — bitwise, on a corpus where the two chains disagree.
func TestEntryPointsBindTheirChain(t *testing.T) {
	r := rng.New(0x4a)
	const seg, gates, cols = 7, 4, 97
	m := randMatrix(r, seg*gates, cols)
	xs := []Vector{randVector(r, cols), randVector(r, cols), randVector(r, cols)}
	x := xs[0]
	skip := randMask(r, seg, 0.3)
	skips := masksOf([][]bool{nil, skip, nil})
	// Every kernel writes into (row 0 of) a fresh len(xs) × rows matrix,
	// which run returns flat; segs views row 0 as the per-gate dsts.
	run := func(fn func(d *Matrix)) []float32 {
		d := NewMatrix(len(xs), seg*gates)
		fn(d)
		return d.Data
	}
	segs := func(d *Matrix) []Vector {
		row := d.Row(0)
		return []Vector{row[:seg], row[seg : 2*seg], row[2*seg : 3*seg], row[3*seg:]}
	}
	canon, wide := KernelsFor(ChainSSE2), KernelsFor(ChainAVX2)
	same := func(name string, entry, method func(d *Matrix)) {
		if got, want := run(entry), run(method); !slices.Equal(got, want) {
			t.Errorf("%s does not run its binding's method: %v != %v", name, got, want)
		}
	}
	same("Gemv", func(d *Matrix) { Gemv(d.Row(0), m, x) },
		func(d *Matrix) { canon.Gemv(d.Row(0), m, x) })
	same("PackedGemv", func(d *Matrix) { PackedGemv(segs(d), m, x) },
		func(d *Matrix) { canon.PackedGemv(segs(d), m, x) })
	same("PackedGemvRows", func(d *Matrix) { PackedGemvRows(segs(d), m, x, skip, 2) },
		func(d *Matrix) { canon.PackedGemvRows(segs(d), m, x, skip, 2) })
	same("PackedGemm", func(d *Matrix) { PackedGemm(d, m, xs) },
		func(d *Matrix) { canon.PackedGemm(d, m, xs) })
	same("PackedGemmRows", func(d *Matrix) { PackedGemmRows(d, m, xs, skips, 2) },
		func(d *Matrix) { canon.PackedGemmRows(d, m, xs, skips, 2) })
	same("WidePackedGemv", func(d *Matrix) { WidePackedGemv(segs(d), m, x) },
		func(d *Matrix) { wide.PackedGemv(segs(d), m, x) })
	same("WidePackedGemmRows", func(d *Matrix) { WidePackedGemmRows(d, m, xs, skips, 2) },
		func(d *Matrix) { wide.PackedGemmRows(d, m, xs, skips, 2) })
	if slices.Equal(run(func(d *Matrix) { canon.Gemv(d.Row(0), m, x) }), run(func(d *Matrix) { wide.Gemv(d.Row(0), m, x) })) {
		t.Fatal("the corpus does not tell the chains apart")
	}
}
