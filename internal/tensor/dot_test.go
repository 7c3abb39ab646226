package tensor

import (
	"math"
	"testing"

	"mobilstm/internal/rng"
)

// dotSizes cross the 16-float block boundary and every remainder class,
// from the empty row up to the paper's h = 650.
var dotSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 100, 127, 192, 650}

// TestDotRowMatchesGeneric pins dotRowSSE2 (SSE2 assembly on amd64,
// alias of the Go chain elsewhere) to the chain definition in
// dotRowGeneric, bitwise, across block boundaries, remainders, and the
// empty row.
func TestDotRowMatchesGeneric(t *testing.T) {
	r := rng.New(0x61)
	for _, n := range dotSizes {
		row := make([]float32, n)
		x := make([]float32, n+3) // x may be longer than row; only x[:n] is read
		for i := range row {
			row[i] = float32(r.Norm())
		}
		for i := range x {
			x[i] = float32(r.Norm())
		}
		got := dotRowSSE2(row, x)
		want := dotRowGeneric(row, x)
		if got != want {
			t.Errorf("n=%d: dotRowSSE2=%v dotRowGeneric=%v", n, got, want)
		}
	}
}

// TestDotRowAdversarialValues exercises cancellation-heavy inputs where
// any reassociation between the assembly and Go chains would surface as
// a bit difference.
func TestDotRowAdversarialValues(t *testing.T) {
	r := rng.New(0x62)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		row := make([]float32, n)
		x := make([]float32, n)
		for i := range row {
			// Wildly varying magnitudes: rounding differs under any
			// alternative summation order.
			row[i] = float32(r.Norm() * r.Float64() * 1e6)
			x[i] = float32(r.Norm() / (1 + r.Float64()*1e5))
		}
		got := dotRowSSE2(row, x)
		want := dotRowGeneric(row, x)
		if got != want {
			t.Fatalf("trial %d n=%d: dotRowSSE2=%v dotRowGeneric=%v", trial, n, got, want)
		}
	}
}

// sameBits is the bitwise contract with the one freedom IEEE leaves a
// body: when a lane is NaN, which NaN payload propagates.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// quadCase is four rows of one length and the x they are dotted
// against.
type quadCase struct {
	name string
	rows [4][]float32
	x    []float32
}

// quadCorpus draws the four-row corpus for one length n: rows at
// unrelated addresses, four adjacent rows of one matrix, the same row
// passed twice, the adversarial-magnitude draw of
// TestDotRowAdversarialValues, subnormal rows, and rows with ±Inf and
// NaN lanes.
func quadCorpus(r *rng.RNG, n int) []quadCase {
	norm := func(m int) []float32 {
		v := make([]float32, m)
		for i := range v {
			v[i] = float32(r.Norm())
		}
		return v
	}
	x := norm(n + 3) // x may be longer than the rows; only x[:n] is read
	apart := [4][]float32{norm(n), norm(n), norm(n), norm(n)}
	block := norm(4 * n)
	adjacent := [4][]float32{block[:n], block[n : 2*n], block[2*n : 3*n], block[3*n:]}
	twice := [4][]float32{apart[0], apart[1], apart[0], apart[0]}
	var wild [4][]float32
	wx := make([]float32, n)
	for i := range wx {
		wx[i] = float32(r.Norm() / (1 + r.Float64()*1e5))
	}
	for k := range wild {
		wild[k] = make([]float32, n)
		for i := range wild[k] {
			wild[k][i] = float32(r.Norm() * r.Float64() * 1e6)
		}
	}
	// Subnormal rows: every product and partial sum lives near the
	// bottom of the range, where rounding is gradual.
	var subnormal [4][]float32
	for k := range subnormal {
		subnormal[k] = make([]float32, n)
		for i := range subnormal[k] {
			subnormal[k][i] = math.Float32frombits(uint32(r.Uint64()) & 0x807fffff)
		}
	}
	// One non-finite lane per row: ±Inf in rows 0 and 1, NaN in row 2,
	// both infinities in row 3 (Inf - Inf = NaN); the other lanes and
	// the other rows of the call stay finite.
	nonFinite := [4][]float32{norm(n), norm(n), norm(n), norm(n)}
	if n > 0 {
		inf := float32(math.Inf(1))
		nonFinite[0][r.Intn(n)] = inf
		nonFinite[1][r.Intn(n)] = -inf
		nonFinite[2][r.Intn(n)] = float32(math.NaN())
		nonFinite[3][0], nonFinite[3][n-1] = inf, -inf
	}
	return []quadCase{
		{"apart", apart, x}, {"adjacent", adjacent, x}, {"twice", twice, x},
		{"wild", wild, wx}, {"subnormal", subnormal, x}, {"non-finite", nonFinite, x},
	}
}

// TestDotQuadMatchesGeneric pins every four-row binding to its chain's
// definition, row by row: the AVX four-row body (where the probe binds
// it) against dotRowGeneric directly, and each chain's Kernels.dot4 —
// the AVX body, or four row-body calls — against its reference body.
// Outputs must be bitwise equal, or both NaN.
func TestDotQuadMatchesGeneric(t *testing.T) {
	r := rng.New(0x63)
	type body struct {
		name string
		quad quadBodyFn
		ref  rowBodyFn
	}
	var bodies []body
	if hasQuadBody {
		bodies = append(bodies, body{"dotQuadAVX", dotQuadAVX, dotRowGeneric})
	}
	for _, c := range chainRefs {
		bodies = append(bodies, body{c.chain.String() + ".dot4", KernelsFor(c.chain).dot4, c.ref})
	}
	for _, n := range dotSizes {
		for _, c := range quadCorpus(r, n) {
			for _, b := range bodies {
				var got [4]float32
				got[0], got[1], got[2], got[3] = b.quad(c.rows[0], c.rows[1], c.rows[2], c.rows[3], c.x)
				for k, row := range c.rows {
					if want := b.ref(row, c.x); !sameBits(got[k], want) {
						t.Errorf("%s n=%d %s row %d: %v (%#08x), reference %v (%#08x)", b.name, n, c.name, k,
							got[k], math.Float32bits(got[k]), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// blockCase is four rows of one length and the four inputs they are
// dotted against.
type blockCase struct {
	name string
	rows [4][]float32
	xs   [4][]float32
}

// blockCorpus extends quadCorpus to four inputs for one length n: each
// four-row case against its x and three more drawn by the same law
// (the non-finite case with a -Inf lane in its last input), plus the
// first case with one input passed three times.
func blockCorpus(r *rng.RNG, n int) []blockCase {
	draw := func(wild bool) []float32 {
		if wild {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(r.Norm() / (1 + r.Float64()*1e5))
			}
			return x
		}
		x := make([]float32, n+3)
		for i := range x {
			x[i] = float32(r.Norm())
		}
		return x
	}
	var cs []blockCase
	for _, c := range quadCorpus(r, n) {
		wild := c.name == "wild"
		xs := [4][]float32{c.x, draw(wild), draw(wild), draw(wild)}
		if c.name == "non-finite" && n > 0 {
			xs[3][r.Intn(n)] = float32(math.Inf(-1))
		}
		cs = append(cs, blockCase{c.name, c.rows, xs})
	}
	a := cs[0]
	return append(cs, blockCase{"x thrice", a.rows, [4][]float32{a.xs[1], a.xs[0], a.xs[1], a.xs[1]}})
}

// TestDotBlockMatchesGeneric pins every four-row × four-input binding
// to its chain's definition, pair by pair: the AVX-512 block body
// (where the probe binds it) against sixteen dotRowGeneric calls, and
// each chain's Kernels.dot4x4 — the block body, or four dot4 calls —
// against its reference body. Outputs must be bitwise equal, or both
// NaN.
func TestDotBlockMatchesGeneric(t *testing.T) {
	r := rng.New(0x64)
	type body struct {
		name  string
		block blockBodyFn
		ref   rowBodyFn
	}
	var bodies []body
	if hasBlockBody {
		bodies = append(bodies, body{"dotBlockAVX512", dotBlockAVX512, dotRowGeneric})
	} else {
		t.Logf("no AVX-512 block body on this CPU (%s): checking the dot4x4 fallbacks only", CPU())
	}
	for _, c := range chainRefs {
		bodies = append(bodies, body{c.chain.String() + ".dot4x4", KernelsFor(c.chain).dot4x4, c.ref})
	}
	for _, n := range dotSizes {
		for _, c := range blockCorpus(r, n) {
			for _, b := range bodies {
				r, x := c.rows, c.xs
				got := b.block(r[0], r[1], r[2], r[3], x[0], x[1], x[2], x[3])
				for bi, x := range c.xs {
					for i, row := range c.rows {
						if want := b.ref(row, x); !sameBits(got[bi][i], want) {
							t.Errorf("%s n=%d %s row %d input %d: %v (%#08x), reference %v (%#08x)", b.name, n, c.name, i, bi,
								got[bi][i], math.Float32bits(got[bi][i]), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}
