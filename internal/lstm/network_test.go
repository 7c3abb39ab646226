package lstm

import (
	"math"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

func testNet(t *testing.T, input, hidden, layers, classes int, seed uint64) *Network {
	t.Helper()
	n := NewNetwork(input, hidden, layers, classes)
	n.InitRandom(rng.New(seed), func(l int) float64 { return 1 + 0.2*float64(l) }, 0.5)
	return n
}

var testSeqs = equivtest.Seqs

func TestNewNetworkShapes(t *testing.T) {
	n := NewNetwork(10, 20, 3, 4)
	if len(n.Layers) != 3 {
		t.Fatalf("layers: %d", len(n.Layers))
	}
	if n.Layers[0].Input != 10 || n.Layers[1].Input != 20 || n.Layers[2].Input != 20 {
		t.Fatal("layer input chaining wrong")
	}
	if n.Hidden() != 20 || n.Input() != 10 || n.Classes() != 4 {
		t.Fatal("accessors wrong")
	}
}

func TestNewNetworkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero layers")
		}
	}()
	NewNetwork(4, 4, 0, 2)
}

func TestUnitedBytes(t *testing.T) {
	l := NewLayer(100, 50)
	if l.UnitedUBytes() != 4*100*100*4 {
		t.Fatalf("U bytes %d", l.UnitedUBytes())
	}
	if l.UnitedWBytes() != 4*100*50*4 {
		t.Fatalf("W bytes %d", l.UnitedWBytes())
	}
}

func TestRunDeterministic(t *testing.T) {
	n := testNet(t, 16, 16, 2, 4, 1)
	xs := testSeqs(rng.New(2), 16, 10, 1)[0]
	a := n.Run(xs, Baseline())
	b := n.Run(xs, Baseline())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("baseline run not deterministic")
		}
	}
}

func TestRunBoundedHidden(t *testing.T) {
	// h_t = o*tanh(c) must stay in [-1, 1] (the §IV-A bound the
	// relevance analysis depends on). Check via a single-layer network's
	// head input by making Head the identity.
	n := testNet(t, 12, 12, 1, 12, 3)
	for i := range n.Head.Data {
		n.Head.Data[i] = 0
	}
	for j := 0; j < 12; j++ {
		n.Head.Set(j, j, 1)
		n.HeadBias[j] = 0
	}
	xs := testSeqs(rng.New(4), 12, 20, 1)[0]
	out := n.Run(xs, Baseline())
	for j, v := range out {
		if v < -1 || v > 1 {
			t.Fatalf("h[%d] = %v out of [-1,1]", j, v)
		}
	}
}

func TestBaselineMatchesDirectEquations(t *testing.T) {
	// One layer, one cell: Run must equal a hand-computed Eqs. 1-5 step.
	n := NewNetwork(3, 2, 1, 2)
	l := n.Layers[0]
	r := rng.New(7)
	for _, m := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo, l.Uf, l.Ui, l.Uc, l.Uo} {
		for i := range m.Data {
			m.Data[i] = r.NormF32(0, 0.5)
		}
	}
	for _, b := range []tensor.Vector{l.Bf, l.Bi, l.Bc, l.Bo} {
		for i := range b {
			b[i] = r.NormF32(0, 0.5)
		}
	}
	for j := 0; j < 2; j++ {
		n.Head.Set(j, j, 1)
	}
	x := tensor.Vector{0.3, -0.7, 1.1}

	// Hand computation with h_0 = c_0 = 0.
	hand := make([]float64, 2)
	for j := 0; j < 2; j++ {
		wf := float64(l.Wf.At(j, 0))*0.3 + float64(l.Wf.At(j, 1))*-0.7 + float64(l.Wf.At(j, 2))*1.1
		wi := float64(l.Wi.At(j, 0))*0.3 + float64(l.Wi.At(j, 1))*-0.7 + float64(l.Wi.At(j, 2))*1.1
		wc := float64(l.Wc.At(j, 0))*0.3 + float64(l.Wc.At(j, 1))*-0.7 + float64(l.Wc.At(j, 2))*1.1
		wo := float64(l.Wo.At(j, 0))*0.3 + float64(l.Wo.At(j, 1))*-0.7 + float64(l.Wo.At(j, 2))*1.1
		sig := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
		f := sig(wf + float64(l.Bf[j]))
		i := sig(wi + float64(l.Bi[j]))
		o := sig(wo + float64(l.Bo[j]))
		c := f*0 + i*math.Tanh(wc+float64(l.Bc[j]))
		hand[j] = o * math.Tanh(c)
	}
	got := n.Run([]tensor.Vector{x}, Baseline())
	for j := 0; j < 2; j++ {
		if math.Abs(float64(got[j])-hand[j]) > 1e-4 {
			t.Fatalf("h[%d] = %v, want %v", j, got[j], hand[j])
		}
	}
}

func TestRunEmptySequencePanics(t *testing.T) {
	n := testNet(t, 4, 4, 1, 2, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty sequence")
		}
	}()
	n.Run(nil, Baseline())
}

func TestInterRequiresMTSAndPredictors(t *testing.T) {
	n := testNet(t, 4, 4, 1, 2, 10)
	xs := testSeqs(rng.New(11), 4, 3, 1)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic without MTS")
			}
		}()
		n.Run(xs, RunOptions{Inter: true})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic without predictors")
			}
		}()
		n.Run(xs, RunOptions{Inter: true, MTS: 3})
	}()
}

func TestHardSigmoidGateRuns(t *testing.T) {
	n := testNet(t, 8, 8, 1, 2, 12)
	n.Gate = tensor.ActHardSigmoid
	xs := testSeqs(rng.New(13), 8, 6, 1)[0]
	out := n.Run(xs, Baseline())
	if len(out) != 2 {
		t.Fatal("hard-sigmoid run failed")
	}
}

func TestInitRandomTrivialFraction(t *testing.T) {
	// The output-gate bias placement should make roughly trivialFrac of
	// units DRS-trivial at the mid threshold.
	n := NewNetwork(64, 256, 1, 2)
	n.InitRandom(rng.New(5), nil, 0.5)
	neg := 0
	for _, b := range n.Layers[0].Bo {
		if b < -1.73 { // logit(0.15)
			neg++
		}
	}
	frac := float64(neg) / 256
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("trivial-prone bias fraction %v, want ~0.5", frac)
	}
}
