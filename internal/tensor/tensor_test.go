package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"mobilstm/internal/rng"
)

func randMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormF32(0, 1)
	}
	return m
}

func randVector(r *rng.RNG, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = r.NormF32(0, 1)
	}
	return v
}

// gemvNaive is the obviously-correct reference implementation.
func gemvNaive(m *Matrix, x Vector) Vector {
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j := 0; j < m.Cols; j++ {
			s += float64(m.At(i, j)) * float64(x[j])
		}
		out[i] = float32(s)
	}
	return out
}

func maxAbsDiff(a, b Vector) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i] - b[i])); v > d {
			d = v
		}
	}
	return d
}

func TestGemvMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 4}, {16, 16}, {33, 129}, {100, 257}} {
		m := randMatrix(r, shape[0], shape[1])
		x := randVector(r, shape[1])
		got := NewVector(shape[0])
		Gemv(got, m, x)
		want := gemvNaive(m, x)
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Errorf("shape %v: max diff %v", shape, d)
		}
	}
}

func TestGemvShapePanics(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		m := NewMatrix(3, 4)
		mustPanic(t, map[string]func(){
			"x cols":   func() { k.Gemv(NewVector(3), m, NewVector(5)) },
			"dst rows": func() { k.Gemv(NewVector(2), m, NewVector(4)) },
		})
	})
}

func TestVectorOps(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	dst := NewVector(3)
	Add(dst, a, b)
	if dst[0] != 5 || dst[1] != 7 || dst[2] != 9 {
		t.Fatalf("Add: %v", dst)
	}
	Mul(dst, a, b)
	if dst[0] != 4 || dst[1] != 10 || dst[2] != 18 {
		t.Fatalf("Mul: %v", dst)
	}
	// Fill's +0 fast path is a clear; a −0 fill keeps its sign bit.
	for _, x := range []float32{0, float32(math.Copysign(0, -1)), -1.5} {
		dst.Fill(x)
		for _, v := range dst {
			if math.Float32bits(v) != math.Float32bits(x) {
				t.Fatalf("Fill(%v) left %#08x", x, math.Float32bits(v))
			}
		}
	}
}

func TestAbsRowSums(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, -2, 3, -4, 0, 5})
	d := AbsRowSums(m)
	if d[0] != 6 || d[1] != 9 {
		t.Fatalf("AbsRowSums: %v", d)
	}
}

func TestArgMax(t *testing.T) {
	if i := ArgMax(Vector{0.1, 3, -1, 3}); i != 1 {
		t.Fatalf("ArgMax tie-break: %d, want 1", i)
	}
	if i := ArgMax(Vector{-5}); i != 0 {
		t.Fatalf("ArgMax single: %d", i)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	v := Vector{1, 2}
	cv := v.Clone()
	cv[0] = 9
	if v[0] != 1 {
		t.Fatal("Vector Clone shares storage")
	}
}

func TestSizeBytes(t *testing.T) {
	if n := NewMatrix(10, 20).SizeBytes(); n != 800 {
		t.Fatalf("SizeBytes: %d", n)
	}
}

// Property: Gemv is linear — M(ax + by) = a*Mx + b*My.
func TestGemvLinearityProperty(t *testing.T) {
	r := rng.New(6)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		rows, cols := 1+rr.Intn(30), 1+rr.Intn(30)
		m := randMatrix(rr, rows, cols)
		x, y := randVector(rr, cols), randVector(rr, cols)
		a, b := rr.Float32(), rr.Float32()
		xy := NewVector(cols)
		for i := range xy {
			xy[i] = a*x[i] + b*y[i]
		}
		lhs := NewVector(rows)
		Gemv(lhs, m, xy)
		mx, my := NewVector(rows), NewVector(rows)
		Gemv(mx, m, x)
		Gemv(my, m, y)
		for i := range lhs {
			want := a*mx[i] + b*my[i]
			if math.Abs(float64(lhs[i]-want)) > 1e-2 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Values: quickSeed(r)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: AbsRowSums bounds |M h| elementwise for any h in [-1, 1]^n —
// the invariant Algorithm 2 rests on.
func TestAbsRowSumsBoundProperty(t *testing.T) {
	r := rng.New(7)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		rows, cols := 1+rr.Intn(20), 1+rr.Intn(20)
		m := randMatrix(rr, rows, cols)
		h := NewVector(cols)
		for i := range h {
			h[i] = 2*rr.Float32() - 1 // in [-1, 1]
		}
		out := NewVector(rows)
		Gemv(out, m, h)
		d := AbsRowSums(m)
		for i := range out {
			if math.Abs(float64(out[i])) > float64(d[i])+1e-3 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Values: quickSeed(r)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
