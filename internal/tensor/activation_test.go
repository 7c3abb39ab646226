package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"mobilstm/internal/rng"
)

func TestSigmoidValues(t *testing.T) {
	if s := Sigmoid(0); math.Abs(float64(s)-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s < 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s > 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
}

func TestHardSigmoidSaturation(t *testing.T) {
	// Exactly 0 below the sensitive area and 1 above (Fig. 7a).
	if HardSigmoid(-2) != 0 {
		t.Fatal("hard sigmoid not 0 at -2")
	}
	if HardSigmoid(2) != 1 {
		t.Fatal("hard sigmoid not 1 at +2")
	}
	if HardSigmoid(0) != 0.5 {
		t.Fatal("hard sigmoid not 0.5 at 0")
	}
	if HardSigmoid(-5) != 0 || HardSigmoid(5) != 1 {
		t.Fatal("hard sigmoid not clamped")
	}
}

func TestHardSigmoidApproximatesSigmoid(t *testing.T) {
	// Within the sensitive area the two functions stay close — the
	// property frameworks exploit when substituting (§IV-A).
	for x := float32(-2); x <= 2; x += 0.1 {
		d := math.Abs(float64(HardSigmoid(x) - Sigmoid(x)))
		if d > 0.12 {
			t.Fatalf("at %v: |hard - exact| = %v", x, d)
		}
	}
}

func TestTanhRange(t *testing.T) {
	for _, x := range []float32{-10, -1, 0, 1, 10} {
		y := Tanh(x)
		if y < -1 || y > 1 {
			t.Fatalf("tanh(%v) = %v out of [-1,1]", x, y)
		}
	}
}

func TestActivationApplyAndString(t *testing.T) {
	cases := []struct {
		a    Activation
		name string
	}{
		{ActSigmoid, "sigmoid"},
		{ActHardSigmoid, "hard_sigmoid"},
		{ActTanh, "tanh"},
	}
	for _, c := range cases {
		if c.a.String() != c.name {
			t.Errorf("String() = %q, want %q", c.a.String(), c.name)
		}
		// Apply must agree with the direct function.
		x := float32(0.7)
		var want float32
		switch c.a {
		case ActSigmoid:
			want = Sigmoid(x)
		case ActHardSigmoid:
			want = HardSigmoid(x)
		case ActTanh:
			want = Tanh(x)
		}
		if got := c.a.Apply(x); got != want {
			t.Errorf("%s.Apply(0.7) = %v, want %v", c.name, got, want)
		}
	}
}

// fallbackCorpus mixes lanes the vector body keeps with every kind its
// guard hands to the scalar reference — saturated (±100), tiny
// (±1e-30), NaN, and an input whose float64 result sits within a few
// ulps of a float32 rounding midpoint (near) — at a length that is not
// a multiple of four, so the scalar tail runs too.
func fallbackCorpus(near uint32) Vector {
	nan := float32(math.NaN())
	return Vector{
		-1, 0.3, 1.7, -2.2, // a group the body keeps
		100, 0.5, -0.25, 2, // saturated
		-100, 1e-30, -1e-30, 0.75,
		nan, -3, 3, 0.1,
		math.Float32frombits(near), -0.9, 0.9, 4,
		1.25, -1.5, nan, // tail
	}
}

// checkInPlace runs vec in place over corpus and requires every element
// to be bitwise ref of its original input: a lane the guard rejects must
// be recomputed from x, not from what the vector pass wrote over it.
func checkInPlace(t *testing.T, name string, vec func(dst, x Vector), ref func(float32) float32, corpus Vector) {
	t.Helper()
	for n := 0; n <= len(corpus); n++ {
		orig := corpus[:n]
		v := append(Vector(nil), orig...)
		vec(v, v)
		for i, x := range orig {
			if want := ref(x); !sameBits(v[i], want) {
				t.Fatalf("in-place %s n=%d lane %d: %s(%v) = %#08x, want %#08x",
					name, n, i, name, x, math.Float32bits(v[i]), math.Float32bits(want))
			}
		}
	}
}

func TestSigmoidVecAlias(t *testing.T) {
	v := Vector{-1, 0, 1}
	SigmoidVec(v, v)
	if math.Abs(float64(v[1])-0.5) > 1e-6 {
		t.Fatalf("in-place SigmoidVec: %v", v)
	}
	checkInPlace(t, "SigmoidVec", SigmoidVec, Sigmoid, fallbackCorpus(0x3f283bf2))
}

func TestTanhVec(t *testing.T) {
	src := Vector{0, 1}
	dst := NewVector(2)
	TanhVec(dst, src)
	if dst[0] != 0 || math.Abs(float64(dst[1])-math.Tanh(1)) > 1e-6 {
		t.Fatalf("TanhVec: %v", dst)
	}
	checkInPlace(t, "TanhVec", TanhVec, Tanh, fallbackCorpus(0x3f172be6))
}

// Property: sigmoid output is in [0,1], tanh in [-1,1], and both are
// monotone — the saturation property the paper's sensitivity analysis
// depends on.
func TestActivationPropertiesQuick(t *testing.T) {
	r := rng.New(99)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		x := float32(rr.Uniform(-50, 50))
		y := float32(rr.Uniform(-50, 50))
		if x > y {
			x, y = y, x
		}
		sx, sy := Sigmoid(x), Sigmoid(y)
		tx, ty := Tanh(x), Tanh(y)
		hx, hy := HardSigmoid(x), HardSigmoid(y)
		inRange := sx >= 0 && sy <= 1 && tx >= -1 && ty <= 1 && hx >= 0 && hy <= 1
		monotone := sx <= sy && tx <= ty && hx <= hy
		return inRange && monotone
	}
	cfg := &quick.Config{MaxCount: 500, Values: quickSeed(r)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownActivationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown activation")
		}
	}()
	Activation(99).Apply(0)
}
