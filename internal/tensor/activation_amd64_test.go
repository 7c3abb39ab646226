//go:build amd64

package tensor

import (
	"flag"
	"math"
	"runtime"
	"sync"
	"testing"

	"mobilstm/internal/rng"
)

// The vector activation contract: wherever the AVX2+FMA body writes a
// lane, it writes the scalar reference's bits. TestActivationSweep
// checks a deterministic ~1 s sample on every run; the full 2^32 sweep
// (make activation-exhaustive) is behind the flag below.

var activationExhaustive = flag.Bool("activation-exhaustive", false,
	"run TestActivationExhaustive over all 2^32 float32 inputs for both activations")

var actNames = [2]string{"sigmoid", "tanh"}

// sweepActivation runs the vector body over the bit patterns gen yields
// (gen fills a buffer and reports how many it wrote; 0 ends the sweep)
// and returns the lanes that differ from the scalar reference, NaN ≡
// NaN, logging the first few.
func sweepActivation(t *testing.T, tanh bool, gen func(buf []uint32) int) (mismatches int) {
	const chunk = 1 << 14
	bits := make([]uint32, chunk)
	in, out := NewVector(chunk), NewVector(chunk)
	for {
		n := gen(bits)
		if n == 0 {
			return mismatches
		}
		for i, b := range bits[:n] {
			in[i] = math.Float32frombits(b)
		}
		done := actBody(out[:n], in[:n], tanh)
		for i, x := range in[:done] {
			if want := actRef(x, tanh); !sameBits(out[i], want) {
				if mismatches < 8 {
					t.Errorf("%s(%v = %#08x) = %#08x, scalar reference %#08x",
						actNames[b2i(tanh)], x, bits[i], math.Float32bits(out[i]), math.Float32bits(want))
				}
				mismatches++
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// strided yields every stride-th bit pattern in [lo, hi), starting at lo.
func strided(lo, hi, stride uint64) func([]uint32) int {
	next := lo
	return func(buf []uint32) int {
		n := 0
		for ; n < len(buf) && next < hi; n++ {
			buf[n] = uint32(next)
			next += stride
		}
		return n
	}
}

// windows yields every bit pattern within ±2^16 of each center,
// clipped to the pattern of the same sign.
func windows(centers ...float32) func([]uint32) int {
	var lo, hi []uint64
	for _, c := range centers {
		b := uint64(math.Float32bits(c))
		sign := b & (1 << 31)
		mag := b &^ (1 << 31)
		l := uint64(0)
		if mag > 1<<16 {
			l = mag - 1<<16
		}
		lo, hi = append(lo, sign|l), append(hi, sign|(mag+1<<16+1))
	}
	w, next := 0, uint64(0)
	return func(buf []uint32) int {
		n := 0
		for n < len(buf) && w < len(lo) {
			if next < lo[w] {
				next = lo[w]
			}
			if next >= hi[w] {
				w++
				continue
			}
			buf[n] = uint32(next)
			n++
			next++
		}
		return n
	}
}

// sweepCenters are the inputs where the body's behaviour changes: zero,
// the scalar tanh's branch point 0.625, one, and the fast-range limits
// of both functions (sigmoid |x| ≤ 87, tanh 2^-125 ≤ |x| ≤ 44).
var sweepCenters = []float32{0, float32(math.Copysign(0, -1)), 0.625, -0.625, 1, -1, 87, -87, 44, -44, 0x1p-125, -0x1p-125}

func TestActivationSweep(t *testing.T) {
	if !hasActBody {
		t.Skipf("no AVX2+FMA activation body on this CPU (%s)", CPU())
	}
	for _, tanh := range []bool{false, true} {
		m := sweepActivation(t, tanh, strided(0, 1<<32, 97))
		m += sweepActivation(t, tanh, windows(sweepCenters...))
		if m > 0 {
			t.Fatalf("%s: %d lanes differ from the scalar reference", actNames[b2i(tanh)], m)
		}
	}
}

// TestActivationExhaustive compares the vector body with the scalar
// reference on every float32 input, both functions, one slice of the
// bit space per GOMAXPROCS worker.
func TestActivationExhaustive(t *testing.T) {
	if !*activationExhaustive {
		t.Skip("full 2^32 sweep: run with -activation-exhaustive (make activation-exhaustive)")
	}
	if !hasActBody {
		t.Skipf("no AVX2+FMA activation body on this CPU (%s)", CPU())
	}
	workers := uint64(runtime.GOMAXPROCS(0))
	for _, tanh := range []bool{false, true} {
		var wg sync.WaitGroup
		var mu sync.Mutex
		total := 0
		span := (uint64(1)<<32 + workers - 1) / workers
		for w := uint64(0); w < workers; w++ {
			lo, hi := w*span, min((w+1)*span, 1<<32)
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := sweepActivation(t, tanh, strided(lo, hi, 1))
				mu.Lock()
				total += m
				mu.Unlock()
			}()
		}
		wg.Wait()
		t.Logf("%s: %d mismatches over all 2^32 inputs", actNames[b2i(tanh)], total)
		if total > 0 {
			t.Fail()
		}
	}
}

// TestActivationGuardRejects pins what the body hands back: a group
// holding a saturated, tiny, NaN or near-midpoint lane is not written.
func TestActivationGuardRejects(t *testing.T) {
	if !hasActBody {
		t.Skipf("no AVX2+FMA activation body on this CPU (%s)", CPU())
	}
	nan := float32(math.NaN())
	cases := []struct {
		tanh bool
		x    float32
	}{
		{false, 100}, {false, -100}, {false, nan}, {false, math.Float32frombits(0x3f283bf2)},
		{true, 100}, {true, 1e-38}, {true, nan}, {true, math.Float32frombits(0x3f172be6)},
	}
	for _, c := range cases {
		x := [4]float32{0.5, c.x, -0.5, 1}
		dst := [4]float32{7, 7, 7, 7}
		var n int
		if c.tanh {
			n = tanh4(&dst[0], &x[0], 4)
		} else {
			n = sigmoid4(&dst[0], &x[0], 4)
		}
		if n != 0 || dst != [4]float32{7, 7, 7, 7} {
			t.Errorf("%s body kept a group holding %v (%#08x): wrote %d, dst %v",
				actNames[b2i(c.tanh)], c.x, math.Float32bits(c.x), n, dst)
		}
	}
}

// TestActivationProbeOffRunsScalar reaches the no-AVX2/FMA path through
// the probe variable and holds both bodies to the same bits on Gaussian
// corpora at the gate scales the cells see.
func TestActivationProbeOffRunsScalar(t *testing.T) {
	r := rng.New(0xac7)
	x := NewVector(1003)
	for _, sigma := range []float64{0.5, 2, 6, 30} {
		for i := range x {
			x[i] = r.NormF32(0, sigma)
		}
		for _, vec := range []struct {
			name string
			f    func(dst, x Vector)
		}{{"SigmoidVec", SigmoidVec}, {"TanhVec", TanhVec}} {
			fast, scalar := NewVector(len(x)), NewVector(len(x))
			vec.f(fast, x)
			prev := hasActBody
			hasActBody = false
			if n := actVec(scalar, x, vec.name == "TanhVec"); n != 0 {
				t.Fatalf("probe off: vector body wrote %d elements", n)
			}
			vec.f(scalar, x)
			hasActBody = prev
			for i := range x {
				if !sameBits(fast[i], scalar[i]) {
					t.Fatalf("%s σ=%v lane %d (x=%v): probe on %#08x, probe off %#08x",
						vec.name, sigma, i, x[i], math.Float32bits(fast[i]), math.Float32bits(scalar[i]))
				}
			}
		}
	}
}
