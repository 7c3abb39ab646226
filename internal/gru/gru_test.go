package gru

import (
	"math"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/intercell"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

func testNet(seed uint64, layers, classes int) *Network {
	n := NewNetwork(16, 16, layers, classes)
	n.InitRandom(rng.New(seed), func(l int) float64 { return 1 + 0.2*float64(l) }, 0.5)
	return n
}

func seqsFor(seed uint64, length, count int) [][]tensor.Vector {
	return equivtest.Seqs(rng.New(seed), 16, length, count)
}

func zeroPreds(n *Network) []intercell.Predictor {
	return equivtest.ZeroPredictors(len(n.Layers), n.Hidden())
}

func maxDiff(a, b tensor.Vector) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i] - b[i])); v > d {
			d = v
		}
	}
	return d
}

func TestGRUCellMatchesHandComputation(t *testing.T) {
	n := NewNetwork(2, 2, 1, 2)
	l := n.Layers[0]
	r := rng.New(3)
	for _, m := range []*tensor.Matrix{l.Wz, l.Wr, l.Wh, l.Uz, l.Ur, l.Uh} {
		for i := range m.Data {
			m.Data[i] = r.NormF32(0, 0.6)
		}
	}
	for _, bvec := range []tensor.Vector{l.Bz, l.Br, l.Bh} {
		for i := range bvec {
			bvec[i] = r.NormF32(0, 0.5)
		}
	}
	for j := 0; j < 2; j++ {
		n.Head.Set(j, j, 1)
	}
	x := tensor.Vector{0.4, -0.9}
	sig := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	hand := make([]float64, 2)
	for j := 0; j < 2; j++ {
		wz := float64(l.Wz.At(j, 0))*0.4 + float64(l.Wz.At(j, 1))*-0.9
		wr := float64(l.Wr.At(j, 0))*0.4 + float64(l.Wr.At(j, 1))*-0.9
		wh := float64(l.Wh.At(j, 0))*0.4 + float64(l.Wh.At(j, 1))*-0.9
		z := sig(wz + float64(l.Bz[j]))
		// h_{t-1} = 0, so the reset gate and U_h terms vanish.
		cand := math.Tanh(wh + float64(l.Bh[j]))
		_ = wr
		hand[j] = z * cand
	}
	got := n.Run([]tensor.Vector{x}, Baseline())
	for j := 0; j < 2; j++ {
		if math.Abs(float64(got[j])-hand[j]) > 1e-4 {
			t.Fatalf("h[%d] = %v, want %v", j, got[j], hand[j])
		}
	}
}

func TestGRUHiddenBounded(t *testing.T) {
	n := testNet(5, 1, 16)
	for i := range n.Head.Data {
		n.Head.Data[i] = 0
	}
	for j := 0; j < 16; j++ {
		n.Head.Set(j, j, 1)
		n.HeadBias[j] = 0
	}
	out := n.Run(seqsFor(6, 20, 1)[0], Baseline())
	for j, v := range out {
		if v < -1 || v > 1 {
			t.Fatalf("h[%d] = %v out of [-1,1]", j, v)
		}
	}
}

func TestGRUInterAlphaZeroMatchesBaseline(t *testing.T) {
	n := testNet(7, 2, 3)
	xs := seqsFor(8, 12, 1)[0]
	base := n.Run(xs, Baseline())
	opt := n.Run(xs, RunOptions{Inter: true, AlphaInter: 0, MTS: 4, Predictors: zeroPreds(n)})
	if d := maxDiff(base, opt); d > 1e-5 {
		t.Fatalf("inter(0) differs by %v", d)
	}
}

func TestGRUIntraAlphaZeroMatchesBaseline(t *testing.T) {
	n := testNet(9, 2, 3)
	xs := seqsFor(10, 12, 1)[0]
	base := n.Run(xs, Baseline())
	opt := n.Run(xs, RunOptions{Intra: true, AlphaIntra: 0})
	if d := maxDiff(base, opt); d > 1e-5 {
		t.Fatalf("intra(0) differs by %v", d)
	}
}

func TestGRUDRSCarriesPreviousHidden(t *testing.T) {
	// With every update gate pinned near zero and a huge threshold, DRS
	// carries h_{t-1} forward: the output equals the initial state (0)
	// carried through, so logits collapse to the head bias.
	n := testNet(11, 1, 3)
	for j := range n.Layers[0].Bz {
		n.Layers[0].Bz[j] = -12
	}
	xs := seqsFor(12, 6, 1)[0]
	out := n.Run(xs, RunOptions{Intra: true, AlphaIntra: 0.4})
	for j := range out {
		if math.Abs(float64(out[j]-n.HeadBias[j])) > 1e-5 {
			t.Fatalf("logit %d = %v, want head bias %v", j, out[j], n.HeadBias[j])
		}
	}
}

func TestGRUDRSGentlerThanZeroing(t *testing.T) {
	// The carry approximation must stay closer to the exact output than
	// a zeroing approximation at the same threshold would be: compare
	// against an exact run, skipped output should track h_{t-1} which is
	// usually closer to h_t than 0 is.
	n := testNet(13, 1, 4)
	seqs := seqsFor(14, 15, 5)
	var skipDist float64
	for _, xs := range seqs {
		base := n.Run(xs, Baseline())
		approx := n.Run(xs, RunOptions{Intra: true, AlphaIntra: 0.15})
		skipDist += maxDiff(base, approx)
	}
	// The distance must be small relative to the logit scale (~1).
	if skipDist/float64(len(seqs)) > 0.5 {
		t.Fatalf("carry-DRS perturbation too large: %v", skipDist/float64(len(seqs)))
	}
}

func TestGRURelevanceSaturation(t *testing.T) {
	// Tiny U and strong z pre-activation (z ~ 1) with saturated
	// candidate: the link must be weak.
	l := NewLayer(8, 8)
	for _, u := range []*tensor.Matrix{l.Uz, l.Ur, l.Uh} {
		for i := range u.Data {
			u.Data[i] = 0.001
		}
	}
	a := newAnalyzer(l)
	big := tensor.NewVector(8)
	for i := range big {
		big[i] = 10
	}
	if s := a.relevance(big, big, big); s > 0.5 {
		t.Fatalf("saturated GRU link relevance %v, want ~0", s)
	}
	// Carry alive (z input near 0): link strong regardless of candidate.
	zero := tensor.NewVector(8)
	if s := a.relevance(zero, zero, zero); s < 8 {
		t.Fatalf("live-carry link relevance %v, want strong", s)
	}
}

func TestGRUTraceAndTissues(t *testing.T) {
	n := testNet(15, 2, 3)
	xs := seqsFor(16, 14, 1)[0]
	tr := &Trace{}
	n.Run(xs, RunOptions{
		Inter: true, AlphaInter: 1e9, MTS: 3, Predictors: zeroPreds(n),
		Intra: true, AlphaIntra: 0.1, Trace: tr,
	})
	if len(tr.Layers) != 2 {
		t.Fatalf("trace layers %d", len(tr.Layers))
	}
	lt := tr.Layers[0]
	if len(lt.Breakpoints) != 13 {
		t.Fatalf("breakpoints %d, want all 13", len(lt.Breakpoints))
	}
	for _, sz := range lt.TissueSizes {
		if sz > 3 {
			t.Fatalf("tissue %d above MTS", sz)
		}
	}
}

// maxAbs returns max_i |v[i]|, or 0 for an empty vector.
func maxAbs(v tensor.Vector) float32 {
	var m float32
	for _, x := range v {
		m = max(m, x, -x)
	}
	return m
}

func TestGRUCollectPredictors(t *testing.T) {
	n := testNet(17, 2, 3)
	preds := CollectPredictors(n, seqsFor(18, 10, 2))
	if len(preds) != 2 {
		t.Fatalf("predictors %d", len(preds))
	}
	for _, p := range preds {
		if maxAbs(p.H) == 0 {
			t.Fatal("zero predictor")
		}
		if maxAbs(p.H) > 1 {
			t.Fatal("predictor out of hidden range")
		}
	}
}

func TestGRUUnitedBytes(t *testing.T) {
	l := NewLayer(100, 80)
	if l.UnitedUBytes() != 3*100*100*4 {
		t.Fatalf("united bytes %d", l.UnitedUBytes())
	}
}

func TestGRUPanics(t *testing.T) {
	n := testNet(19, 1, 2)
	cases := []func(){
		func() { NewNetwork(4, 4, 0, 2) },
		func() { n.Run(nil, Baseline()) },
		func() { n.Run(seqsFor(20, 3, 1)[0], RunOptions{Inter: true}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGRUCalibrateSpread(t *testing.T) {
	n := testNet(31, 2, 4)
	seqs := seqsFor(32, 12, 3)
	Calibrate(n, seqs, func(int) float64 { return 1.0 })
	// Layer 0 spread exactly normalized.
	var sumSq float64
	var count int
	tmp := make([]float32, n.Layers[0].Hidden)
	for _, xs := range seqs {
		for _, x := range xs {
			for _, w := range n.Layers[0].InputWeights() {
				for i := 0; i < w.Rows; i++ {
					var s float32
					row := w.Row(i)
					for j := range row {
						s += row[j] * x[j]
					}
					tmp[i] = s
					sumSq += float64(s) * float64(s)
					count++
				}
			}
		}
	}
	rms := sumSq / float64(count)
	if rms < 0.9 || rms > 1.1 {
		t.Fatalf("layer-0 spread^2 %v, want ~1", rms)
	}
}

func TestGRUCalibratePanics(t *testing.T) {
	n := testNet(33, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without sequences")
		}
	}()
	Calibrate(n, nil, func(int) float64 { return 1 })
}
