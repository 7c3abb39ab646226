package recurrent

import (
	"math"
	"slices"
	"testing"

	"mobilstm/internal/intercell"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// keptCell is the smallest Cell with the LSTM's layout: a wx row is
// [x₂|x₁], the one first-stage block at its end, and the state is h
// alone. Its DRS gate is W₁·x + U₁·h - 1, so with a zero state a row is
// kept where W₁·x ≥ 1 (about one in six), and Update leaves the state
// zero: which rows a cell keeps is a function of its input alone. Update
// records the kept list it receives, by the address of its wx row.
type keptCell struct {
	PackedCache
	h, in          int
	w1, w2, u1, u2 *tensor.Matrix
	kept           map[*float32][]int
}

func newKeptCell(r *rng.RNG, h, in int) *keptCell {
	c := &keptCell{h: h, in: in, kept: map[*float32][]int{}}
	for _, m := range []**tensor.Matrix{&c.w1, &c.w2, &c.u1, &c.u2} {
		cols := in
		if m == &c.u1 || m == &c.u2 {
			cols = h
		}
		*m = tensor.NewMatrix(h, cols)
		for i := range (*m).Data {
			(*m).Data[i] = r.NormF32(0, 1/math.Sqrt(float64(cols)))
		}
	}
	return c
}

func (c *keptCell) Shape() Shape {
	return Shape{Hidden: c.h, Input: c.in, Gates: 2, First: 1, FirstAt: 1, State: 1}
}
func (c *keptCell) InputWeights() []*tensor.Matrix { return []*tensor.Matrix{c.w2, c.w1} }
func (c *keptCell) RecurrentWeights() (first, second []*tensor.Matrix) {
	return []*tensor.Matrix{c.u1}, []*tensor.Matrix{c.u2}
}
func (c *keptCell) FirstGates(g, wx, a tensor.Vector) {
	for j := range g {
		g[j] = wx[c.h+j] + a[j] - 1
	}
}
func (c *keptCell) Operand(_, _, h tensor.Vector) tensor.Vector { return h }
func (c *keptCell) Update(_, wx, _, _ tensor.Vector, kept []int) {
	c.kept[&wx[0]] = slices.Clone(kept)
}
func (c *keptCell) LinkRelevance() func(wx tensor.Vector) float64 {
	return func(tensor.Vector) float64 { return 0 }
}
func (c *keptCell) InitPredicted(tensor.Vector, intercell.Predictor) {}

// TestDeferredStepsDotOnlyTheUnion holds the step-time second-stage W·x
// to its contract, under the canonical binding as the probes detect it
// and under the pure-Go one. A lockstep group of at least keptGroupMin
// live Intra members computes its second-stage rows at step time, four
// members at a time, over the union of those four's kept rows: with the
// wx slab poisoned before the layer, every cell of such a step must
// come out with exactly its union's rows of its second-stage block
// computed — bitwise Gemv's — and the rest untouched, and every other
// cell with its whole row computed up front. The five lengths make
// deferred steps of five members (a block of four and one left over)
// and of four, and up-front ones of three and fewer. Each member's kept
// rows lie in its union, so Update never reads a row the step skipped.
// Passes of three members, Inter passes and passes without DRS keep
// the whole up-front GEMM.
func TestDeferredStepsDotOnlyTheUnion(t *testing.T) {
	const h, in = 12, 20
	r := rng.New(0x51)
	lens := []int{9, 7, 7, 5, 2}
	var xs []tensor.Vector
	for range slices.Max(lens) * len(lens) {
		x := tensor.NewVector(in)
		for i := range x {
			x[i] = r.NormF32(0, 1)
		}
		xs = append(xs, x)
	}
	opt := RunOptions{Intra: true, AlphaIntra: 1e-3}
	for _, c := range []tensor.KernelChain{tensor.ChainSSE2, tensor.ChainGeneric} {
		cell := newKeptCell(r, h, in)
		var sc forwardScratch
		sc.reset(cell.Shape(), opt, lens...)
		if sc.deferred != 5 {
			t.Fatalf("lengths %v defer %d steps, want the fourth longest, 5", lens, sc.deferred)
		}
		xs := xs[:sc.wx.Rows]
		poison := math.Float32frombits(0x7f800001)
		for i := range sc.wxBuf {
			sc.wxBuf[i] = poison
		}
		runLayer(0, cell, xs, opt, nil, &sc, tensor.KernelsFor(c), nil)

		ref, skipped := tensor.NewVector(h), 0
		for k := range slices.Max(lens) {
			var group []member // the step's group, in slot order
			for _, mb := range sc.members {
				if k < mb.n {
					group = append(group, mb)
				}
			}
			for i, mb := range group {
				var union []int // of the four members i's block call serves
				for _, o := range group[i&^3 : min(i&^3+4, len(group))] {
					union = append(union, cell.kept[&sc.wx.Row(o.off + k)[0]]...)
				}
				slices.Sort(union)
				union = slices.Compact(union)
				row, x := sc.wx.Row(mb.off+k), xs[mb.off+k]
				every := func(int) bool { return true }
				tensor.Gemv(ref, cell.w1, x)
				sameBits(t, c, k, "first-stage", row[h:], ref, every)
				tensor.Gemv(ref, cell.w2, x)
				inUnion := func(j int) bool { _, ok := slices.BinarySearch(union, j); return ok }
				if k >= sc.deferred {
					inUnion = every // computed up front
				}
				skipped += sameBits(t, c, k, "second-stage", row[:h], ref, inUnion)
			}
		}
		if skipped == 0 {
			t.Fatalf("%v: no deferred step skipped a row, so the union was never narrower than W₂", c)
		}
	}

	for _, tc := range []struct {
		opt  RunOptions
		lens []int
	}{{opt, []int{9, 7, 7}}, {RunOptions{Inter: true, MTS: 2, Intra: true, AlphaIntra: 0.5}, lens}, {RunOptions{}, lens}} {
		var sc forwardScratch
		sc.reset(lstmShape, tc.opt, tc.lens...)
		if sc.deferred != 0 {
			t.Fatalf("%+v over lengths %v defers %d steps, want none", tc.opt, tc.lens, sc.deferred)
		}
	}
}

// sameBits checks one block of a cell's wx row against its reference:
// the rows computed reports must match bitwise, and every other row
// still hold the poison; it returns how many rows did.
func sameBits(t *testing.T, c tensor.KernelChain, k int, stage string, got, want tensor.Vector, computed func(j int) bool) (skipped int) {
	t.Helper()
	for j := range got {
		switch {
		case computed(j):
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%v step %d: %s row %d = %v, want %v", c, k, stage, j, got[j], want[j])
			}
		case math.Float32bits(got[j]) != 0x7f800001:
			t.Fatalf("%v step %d: %s row %d outside its block's union was computed (%v)", c, k, stage, j, got[j])
		default:
			skipped++
		}
	}
	return skipped
}
