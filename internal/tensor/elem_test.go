package tensor

import (
	"math"
	"slices"
	"testing"

	"mobilstm/internal/rng"
)

// The element-wise contract: each primitive's AVX-512 body writes its
// pure-Go twin's bits (NaN ≡ NaN) over every output, at every segment
// length around the sixteen-row blocks, every kept share, and with the
// packed vector sharing its first element with a row-space input. The
// twin runs with the process forced generic; where no body binds the
// test skips, and the goldens under a generic process hold the twins.

// elemSegs are the segment lengths the contract runs at: empty, inside
// one block, on and beside block edges, and the hot path's h.
var elemSegs = []int{0, 1, 5, 15, 16, 17, 31, 32, 33, 64, 100, 192, 200}

// elemValue draws a gate-scale value, now and then one of the IEEE edge
// cases a body must carry as the twin does.
func elemValue(r *rng.RNG) float32 {
	edges := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)),
		float32(math.Inf(-1)), 0x1p-140, -0x1p-130, 3e38, 1}
	if r.Intn(16) == 0 {
		return edges[r.Intn(len(edges))]
	}
	return r.NormF32(0, 2)
}

func elemVector(r *rng.RNG, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = elemValue(r)
	}
	return v
}

// bitsOf builds the RowMask of a kept list over seg rows, Bits set.
func bitsOf(kept []int, seg int) RowMask {
	words := make([]uint16, MaskWords(seg))
	for _, j := range kept {
		words[j/16] |= 1 << (j % 16)
	}
	return RowMask{Seg: seg, Kept: kept, Bits: words}
}

// keptWith draws each row of seg with probability p, ascending.
func keptWith(r *rng.RNG, seg int, p float64) []int {
	kept := []int{}
	for j := 0; j < seg; j++ {
		if r.Float64() < p {
			kept = append(kept, j)
		}
	}
	return kept
}

// twinAndBody runs f once with the process forced generic and once as
// probed, each on its own clone of the inputs, and fails on the first
// output lane whose bits differ.
func twinAndBody(t *testing.T, what string, in []Vector, f func(v []Vector)) {
	t.Helper()
	clones := func() []Vector {
		out := make([]Vector, len(in))
		for i, v := range in {
			out[i] = v.Clone()
		}
		return out
	}
	twin, body := clones(), clones()
	withChain(t, ChainGeneric, func(*testing.T) { f(twin) })
	f(body)
	for i := range twin {
		for j := range twin[i] {
			if !sameBits(twin[i][j], body[i][j]) {
				t.Fatalf("%s: vector %d lane %d: twin %#08x, body %#08x", what, i,
					j, math.Float32bits(twin[i][j]), math.Float32bits(body[i][j]))
			}
		}
	}
}

func TestElemBodiesMatchTwins(t *testing.T) {
	if !elemVec() {
		t.Skipf("no AVX-512 element-wise body bound (%s, chain %s): the twin has nothing to match", CPU(), ActiveKernelChain())
	}
	r := rng.New(0xe1e)
	for _, seg := range elemSegs {
		for _, p := range []float64{0, 0.3, 0.7, 1} {
			kept := keptWith(r, seg, p)
			mk, n := bitsOf(kept, seg), len(kept)
			a, b, c := elemVector(r, seg), elemVector(r, seg), elemVector(r, seg)
			twinAndBody(t, "Sum3", []Vector{NewVector(seg), a, b, c}, func(v []Vector) { Sum3(v[0], v[1], v[2], v[3]) })
			twinAndBody(t, "GatherSum3", []Vector{NewVector(n), a, b, c}, func(v []Vector) {
				GatherSum3(v[0], v[1], v[2], v[3], mk)
			})
			// In place, as the cells gather: the packed rows over b's head.
			twinAndBody(t, "GatherSum3 in place", []Vector{a, b, c}, func(v []Vector) {
				GatherSum3(v[1][:n], v[0], v[1], v[2], mk)
			})
			f, i, u := elemVector(r, n), elemVector(r, n), elemVector(r, n)
			twinAndBody(t, "CellState", []Vector{a, f, i, u}, func(v []Vector) { CellState(v[0], v[1], v[2], v[3], mk) })
			twinAndBody(t, "ScatterMul", []Vector{b, c, f}, func(v []Vector) { ScatterMul(v[0], v[1], v[2], mk) })
			twinAndBody(t, "Blend", []Vector{a, c, u}, func(v []Vector) { Blend(v[0], v[1], v[2], mk) })
		}
	}
}

// TestKeptRowsIntoMatchesCompare holds the compaction, body and twin,
// to the per-row float32 compare, over one to five cells: the kept list
// ascending and its Bits naming the same rows, every row at α ≤ 0.
func TestKeptRowsIntoMatchesCompare(t *testing.T) {
	r := rng.New(0xc0a)
	for _, seg := range elemSegs {
		for cells := 1; cells <= 5; cells++ {
			os := make([]Vector, cells)
			for c := range os {
				os[c] = elemVector(r, seg)
			}
			for _, alpha := range []float64{r.Float64(), 0} {
				a := float32(alpha)
				want := []int{}
				for j := 0; j < seg; j++ {
					if alpha <= 0 || slices.ContainsFunc(os, func(o Vector) bool { return o[j] >= a }) {
						want = append(want, j)
					}
				}
				check := func(t *testing.T) {
					dst, words := make([]int, seg), make([]uint16, MaskWords(seg))
					for j := range words {
						words[j] = 0xffff // stale bits from an earlier step
					}
					mk := KeptRowsInto(dst, words, os, alpha)
					if !slices.Equal(mk.Kept, want) || !slices.Equal(mk.Bits, bitsOf(want, seg).Bits) || mk.Seg != seg {
						t.Fatalf("seg %d, %d cells, α %v: kept %v bits %04x, want %v", seg, cells, alpha, mk.Kept, mk.Bits, want)
					}
				}
				withChain(t, ChainGeneric, check)
				check(t)
			}
		}
	}
}

// TestBadKeptFindsEveryFault walks the list checks through the vector
// proof and the loop: a list that rises strictly inside [0, Seg) passes,
// and a repeat, a descent or an end out of range is placed where it is.
func TestBadKeptFindsEveryFault(t *testing.T) {
	for _, n := range []int{1, 2, 8, 9, 17, 40} {
		list := make([]int, n)
		for i := range list {
			list[i] = 2 * i
		}
		if j := (RowMask{Seg: 2 * n, Kept: list}).badKept(); j != -1 {
			t.Fatalf("n %d: ascending list faulted at %d", n, j)
		}
		for at := range list {
			bad := slices.Clone(list)
			if bad[at] = -1; at > 0 {
				bad[at] = bad[at-1] - at%2 // a repeat or a descent
			}
			if j := (RowMask{Seg: 2 * n, Kept: bad}).badKept(); j != at {
				t.Fatalf("n %d: fault at %d found at %d (%v)", n, at, j, bad)
			}
		}
		if j := (RowMask{Seg: 2*n - 2, Kept: list}).badKept(); j != n-1 {
			t.Fatalf("n %d: row %d past seg %d found at %d", n, list[n-1], 2*n-2, j)
		}
	}
}

// TestMaskBitsChecked pins the guards on a RowMask's Bits: words that do
// not tile Seg or name a row past it never reach a body, and a body
// handed words that count more or fewer rows than the list stops at the
// packed vector's end and the call panics.
func TestMaskBitsChecked(t *testing.T) {
	if !elemVec() {
		t.Skipf("no AVX-512 element-wise body on this CPU (%s)", CPU())
	}
	v := NewVector(20)
	calls := map[string]func(mk RowMask){
		"GatherSum3": func(mk RowMask) { GatherSum3(v[:len(mk.Kept)], v, v, v, mk) },
		"CellState":  func(mk RowMask) { n := len(mk.Kept); CellState(v, v[:n], v[:n], v[:n], mk) },
		"ScatterMul": func(mk RowMask) { ScatterMul(v, v, v[:len(mk.Kept)], mk) },
		"Blend":      func(mk RowMask) { Blend(v, v, v[:len(mk.Kept)], mk) },
	}
	masks := map[string]RowMask{
		"short":    {Seg: 20, Kept: []int{1}, Bits: []uint16{2}},
		"past seg": {Seg: 20, Kept: []int{1, 2}, Bits: []uint16{2, 1 << 4}},
		"more":     {Seg: 20, Kept: []int{1}, Bits: []uint16{6, 0}},
		"fewer":    {Seg: 20, Kept: []int{1, 2, 17}, Bits: []uint16{6, 0}},
	}
	for call, f := range calls {
		for name, mk := range masks {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s mask %v was run", call, name, mk)
					}
				}()
				f(mk)
			}()
		}
	}
}
