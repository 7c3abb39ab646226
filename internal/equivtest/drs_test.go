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

// TestDRSSkippedRowsNeverActivated holds both cells' Update to "DRS
// skips work, not just outputs" through the element-wise stage. The
// second-stage product rows of the skipped units are poisoned with a
// signalling NaN: the state must come out bitwise as from the clean
// product. Also no buffer the cell touches may hold a NaN other than
// the untouched poison. A skipped row that reached the pre-activation
// sum or an activation pass would leave a quiet NaN behind, and a NaN
// input is always a lane the vector body hands to the scalar fallback.
func TestDRSSkippedRowsNeverActivated(t *testing.T) {
	ln := lstm.NewNetwork(goldenInput, goldenHidden, 1, goldenClasses)
	ln.InitRandom(rng.New(0xd55), linkScale, 0.5)
	gn := gru.NewNetwork(goldenInput, goldenHidden, 1, goldenClasses)
	gn.InitRandom(rng.New(0xd56), linkScale, 0.5)
	h := goldenHidden
	masks := map[string][]bool{"partial": make([]bool, h), "all": make([]bool, h)}
	for j := 0; j < h; j++ {
		masks["partial"][j] = j%3 == 0 || (j >= 10 && j < 15) || j == h-1
		masks["all"][j] = true
	}
	for _, c := range []struct {
		kind string
		cell recurrent.Cell
	}{{"lstm", ln.Layers[0]}, {"gru", gn.Layers[0]}} {
		for name, skip := range masks {
			checkSkippedRows(t, c.kind+" "+name, c.cell, skip)
		}
	}
}

func checkSkippedRows(t *testing.T, label string, cell recurrent.Cell, skip []bool) {
	sh := cell.Shape()
	h, second := sh.Hidden, sh.Gates-sh.First
	r := rng.New(0xd57)
	draw := func(n int, sigma float64) tensor.Vector {
		v := tensor.NewVector(n)
		for i := range v {
			v[i] = r.NormF32(0, sigma)
		}
		return v
	}
	wx, a1, a2, st := draw(sh.Gates*h, 2), draw(sh.First*h, 1), draw(second*h, 1), draw(sh.State*h, 1)
	g := tensor.NewVector(sh.First * h)
	cell.FirstGates(g, wx, a1)

	clone := func(v tensor.Vector) tensor.Vector { return append(tensor.Vector(nil), v...) }
	stClean := clone(st)
	cell.Update(stClean, wx, clone(a2), clone(g), skip)

	stP, aP, gP, wxP := clone(st), clone(a2), clone(g), clone(wx)
	for b := 0; b < second; b++ {
		for j, s := range skip {
			if s {
				aP[b*h+j] = math.Float32frombits(poison)
			}
		}
	}
	cell.Update(stP, wxP, aP, gP, skip)
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
