package equivtest_test

import (
	"math"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/gru"
	"mobilstm/internal/lstm"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// poison is a signalling NaN. Copies keep its bits; any arithmetic on
// it, including an activation lane, yields a quiet NaN instead.
const poison = 0x7f800001

// drsCells returns a one-layer LSTM and GRU cell of the golden shape
// and the skip masks the cell contracts run over.
func drsCells() ([]struct {
	kind string
	cell recurrent.Cell
}, map[string][]bool) {
	ln := lstm.NewNetwork(goldenInput, goldenHidden, 1, goldenClasses)
	ln.InitRandom(rng.New(0xd55), linkScale, 0.5)
	gn := gru.NewNetwork(goldenInput, goldenHidden, 1, goldenClasses)
	gn.InitRandom(rng.New(0xd56), linkScale, 0.5)
	h := goldenHidden
	masks := map[string][]bool{"none": make([]bool, h), "partial": make([]bool, h), "all": make([]bool, h)}
	for j := 0; j < h; j++ {
		masks["partial"][j] = j%3 == 0 || (j >= 10 && j < 15) || j == h-1
		masks["all"][j] = true
	}
	return []struct {
		kind string
		cell recurrent.Cell
	}{{"lstm", ln.Layers[0]}, {"gru", gn.Layers[0]}}, masks
}

// keptOf is the RowMask Update takes for a skip mask: its kept list and
// its Bits, so the element-wise bodies run where they are bound.
func keptOf(skip []bool) tensor.RowMask {
	kept, words := []int{}, make([]uint16, tensor.MaskWords(len(skip)))
	for j, s := range skip {
		if !s {
			kept = append(kept, j)
			words[j/16] |= 1 << (j % 16)
		}
	}
	return tensor.RowMask{Seg: len(skip), Kept: kept, Bits: words}
}

// cellOperands draws one cell's wx, second-stage product and state, and
// computes its first-stage gates.
func cellOperands(cell recurrent.Cell) (wx, a2, g, st tensor.Vector) {
	sh := cell.Shape()
	h := sh.Hidden
	r := rng.New(0xd57)
	draw := func(n int, sigma float64) tensor.Vector {
		v := tensor.NewVector(n)
		for i := range v {
			v[i] = r.NormF32(0, sigma)
		}
		return v
	}
	wx, a1 := draw(sh.Gates*h, 2), draw(sh.First*h, 1)
	a2, st = draw((sh.Gates-sh.First)*h, 1), draw(sh.State*h, 1)
	g = tensor.NewVector(sh.First * h)
	cell.FirstGates(g, wx, a1)
	return wx, a2, g, st
}

func clone(v tensor.Vector) tensor.Vector { return append(tensor.Vector(nil), v...) }

// TestDRSSkippedRowsNeverActivated holds both cells' Update to "DRS
// skips work, not just outputs" through the element-wise stage. The
// second-stage product rows of the skipped units — the rows missing
// from the kept list — are poisoned with a signalling NaN: the state
// must come out bitwise as from the clean product. Also no buffer the
// cell touches may hold a NaN other than the untouched poison. A
// skipped row that reached the pre-activation sum or an activation pass
// would leave a quiet NaN behind, and a NaN input is always a lane the
// vector body hands to the scalar fallback.
func TestDRSSkippedRowsNeverActivated(t *testing.T) {
	cells, masks := drsCells()
	for _, c := range cells {
		for name, skip := range masks {
			checkSkippedRows(t, c.kind+" "+name, c.cell, skip)
		}
	}
}

func checkSkippedRows(t *testing.T, label string, cell recurrent.Cell, skip []bool) {
	sh := cell.Shape()
	h, second := sh.Hidden, sh.Gates-sh.First
	wx, a2, g, st := cellOperands(cell)
	kept := keptOf(skip)

	stClean := clone(st)
	cell.Update(stClean, wx, clone(a2), clone(g), kept)

	stP, aP, gP, wxP := clone(st), clone(a2), clone(g), clone(wx)
	for b := 0; b < second; b++ {
		for j, s := range skip {
			if s {
				aP[b*h+j] = math.Float32frombits(poison)
			}
		}
	}
	cell.Update(stP, wxP, aP, gP, kept)
	equivtest.Vectors(t, label+": state after poisoned skipped rows", stP, stClean)
	for _, buf := range []struct {
		name string
		v    tensor.Vector
	}{{"state", stP}, {"product", aP}, {"gates", gP}, {"wx", wxP}} {
		for i, x := range buf.v {
			if x != x && math.Float32bits(x) != poison {
				t.Fatalf("%s: %s[%d] = %#08x: a poisoned skipped row was computed", label, buf.name, i, math.Float32bits(x))
			}
		}
	}
}

// TestKeptUpdateMatchesDenseUpdate pins the kept-list walk of both
// cells' Update row by row against the same Update over every row: a
// kept row's new state is bitwise the dense one (its gather, activation
// and scatter are the same element-wise operations wherever it lands in
// the compacted blocks), and a skipped row's state is the cell's
// approximation — zero h and c for the LSTM, the carried h for the GRU.
func TestKeptUpdateMatchesDenseUpdate(t *testing.T) {
	cells, masks := drsCells()
	for _, c := range cells {
		h, state := c.cell.Shape().Hidden, c.cell.Shape().State
		wx, a2, g, st := cellOperands(c.cell)
		dense := clone(st)
		c.cell.Update(dense, clone(wx), clone(a2), clone(g), keptOf(make([]bool, h)))
		for name, skip := range masks {
			got := clone(st)
			c.cell.Update(got, clone(wx), clone(a2), clone(g), keptOf(skip))
			for b := 0; b < state; b++ {
				for j := 0; j < h; j++ {
					want := dense[b*h+j]
					if skip[j] && c.kind == "lstm" {
						want = 0
					} else if skip[j] {
						want = st[b*h+j]
					}
					if math.Float32bits(got[b*h+j]) != math.Float32bits(want) {
						t.Fatalf("%s %s: state block %d row %d (skipped %v) = %v, want %v",
							c.kind, name, b, j, skip[j], got[b*h+j], want)
					}
				}
			}
		}
	}
}
