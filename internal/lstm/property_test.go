package lstm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

func quickSeed(r *rng.RNG) func([]reflect.Value, *rand.Rand) {
	return func(args []reflect.Value, _ *rand.Rand) {
		args[0] = reflect.ValueOf(r.Uint64())
	}
}

// Property: for any random network and input, the tissue-parallel flow
// with alpha_inter = 0 (no breaks) and DRS with alpha_intra = 0 (no
// skips) reproduce the exact flow bit-for-bit — the optimizations are
// pure overlays.
func TestNoOpOptimizationsExactProperty(t *testing.T) {
	r := rng.New(0xabc)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		hidden := 4 + rr.Intn(12)
		layers := 1 + rr.Intn(3)
		length := 2 + rr.Intn(8)
		n := NewNetwork(hidden, hidden, layers, 2+rr.Intn(4))
		n.InitRandom(rr.Split(), nil, 0.5)
		xs := make([]tensor.Vector, length)
		for i := range xs {
			v := tensor.NewVector(hidden)
			for j := range v {
				v[j] = rr.NormF32(0, 1.5)
			}
			xs[i] = v
		}
		base := n.Run(xs, Baseline())
		zero := zeroPredictors(n)
		both := n.Run(xs, RunOptions{
			Inter: true, AlphaInter: 0, MTS: 1 + rr.Intn(5), Predictors: zero,
			Intra: true, AlphaIntra: 0,
		})
		for i := range base {
			if math.Abs(float64(base[i]-both[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Values: quickSeed(r)}); err != nil {
		t.Fatal(err)
	}
}

// Property: logits are always finite for any mode and threshold, however
// aggressive — the approximations degrade gracefully, never explode.
func TestFiniteLogitsProperty(t *testing.T) {
	r := rng.New(0xdef)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		hidden := 4 + rr.Intn(10)
		n := NewNetwork(hidden, hidden, 1+rr.Intn(2), 3)
		n.InitRandom(rr.Split(), nil, rr.Float64())
		xs := make([]tensor.Vector, 2+rr.Intn(6))
		for i := range xs {
			v := tensor.NewVector(hidden)
			for j := range v {
				v[j] = rr.NormF32(0, 3)
			}
			xs[i] = v
		}
		out := n.Run(xs, RunOptions{
			Inter: true, AlphaInter: rr.Float64() * 1e4, MTS: 1 + rr.Intn(6),
			Predictors: zeroPredictors(n),
			Intra:      true, AlphaIntra: rr.Float64(),
		})
		for _, v := range out {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Values: quickSeed(r)}); err != nil {
		t.Fatal(err)
	}
}

// Property: a layer's hidden outputs always stay in [-1, 1] under every
// mode — the §IV-A bound that justifies Algorithm 2's [-D, D] range.
func TestHiddenRangeProperty(t *testing.T) {
	r := rng.New(0x123)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		hidden := 4 + rr.Intn(10)
		n := NewNetwork(hidden, hidden, 1, hidden)
		n.InitRandom(rr.Split(), nil, 0.5)
		for i := range n.Head.Data {
			n.Head.Data[i] = 0
		}
		for j := 0; j < hidden; j++ {
			n.Head.Set(j, j, 1)
			n.HeadBias[j] = 0
		}
		xs := make([]tensor.Vector, 3+rr.Intn(6))
		for i := range xs {
			v := tensor.NewVector(hidden)
			for j := range v {
				v[j] = rr.NormF32(0, 4)
			}
			xs[i] = v
		}
		out := n.Run(xs, RunOptions{Intra: true, AlphaIntra: rr.Float64() * 0.4})
		for _, v := range out {
			if v < -1 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Values: quickSeed(r)}); err != nil {
		t.Fatal(err)
	}
}
