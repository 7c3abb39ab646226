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

// The vector activation contract: wherever a vector body — AVX-512 or
// AVX2+FMA — writes a lane, it writes the scalar reference's bits.
// TestActivationSweep checks a deterministic ~1 s sample per body on
// every run; the full 2^32 sweep (make activation-exhaustive) is behind
// the flag below. Each runs once per body the CPU can run, as a subtest
// named after it, so the body actVec binds does not shadow the other.

var activationExhaustive = flag.Bool("activation-exhaustive", false,
	"run TestActivationExhaustive over all 2^32 float32 inputs for both activations")

var actNames = [2]string{"sigmoid", "tanh"}

// actBody names one vector activation body for the sweeps: run is its
// Go driver, group its assembly entry, which takes whole groups of
// width elements (and, for the masked body, a short last group).
type actBody struct {
	name   string
	run    func(dst, x Vector, tanh bool) int
	group  func(dst, x *float32, n int, tanh bool) int
	width  int
	masked bool
}

// actBodies lists the vector activation bodies this CPU can run, the
// one actVec binds first.
func actBodies() []actBody {
	var out []actBody
	if hasBlockBody {
		out = append(out, actBody{"avx512", actBody512, pick(sigmoid8, tanh8), 8, true})
	}
	if hasActBody {
		out = append(out, actBody{"avx2", actBody256, pick(sigmoid4, tanh4), 4, false})
	}
	return out
}

func pick(sigmoid, tanh func(dst, x *float32, n int) int) func(dst, x *float32, n int, tanh bool) int {
	return func(dst, x *float32, n int, th bool) int {
		if th {
			return tanh(dst, x, n)
		}
		return sigmoid(dst, x, n)
	}
}

// eachActBody runs f as a subtest per vector body, and skips t on a CPU
// with none.
func eachActBody(t *testing.T, f func(t *testing.T, body actBody)) {
	bodies := actBodies()
	if len(bodies) == 0 {
		t.Skipf("no vector activation body on this CPU (%s)", CPU())
	}
	for _, b := range bodies {
		t.Run(b.name, func(t *testing.T) { f(t, b) })
	}
}

// sweepActivation runs the vector body over the bit patterns gen yields
// (gen fills a buffer and reports how many it wrote; 0 ends the sweep)
// and returns the lanes that differ from the scalar reference, NaN ≡
// NaN, logging the first few.
func sweepActivation(t *testing.T, body actBody, tanh bool, gen func(buf []uint32) int) (mismatches int) {
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
		done := body.run(out[:n], in[:n], tanh)
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
	eachActBody(t, func(t *testing.T, body actBody) {
		for _, tanh := range []bool{false, true} {
			m := sweepActivation(t, body, tanh, strided(0, 1<<32, 97))
			m += sweepActivation(t, body, tanh, windows(sweepCenters...))
			if m > 0 {
				t.Fatalf("%s %s: %d lanes differ from the scalar reference", body.name, actNames[b2i(tanh)], m)
			}
		}
	})
}

// TestActivationExhaustive compares each vector body with the scalar
// reference on every float32 input, both functions, one slice of the
// bit space per GOMAXPROCS worker.
func TestActivationExhaustive(t *testing.T) {
	if !*activationExhaustive {
		t.Skip("full 2^32 sweep: run with -activation-exhaustive (make activation-exhaustive)")
	}
	eachActBody(t, exhaustive)
}

func exhaustive(t *testing.T, body actBody) {
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
				m := sweepActivation(t, body, tanh, strided(lo, hi, 1))
				mu.Lock()
				total += m
				mu.Unlock()
			}()
		}
		wg.Wait()
		t.Logf("%s %s: %d mismatches over all 2^32 inputs", body.name, actNames[b2i(tanh)], total)
		if total > 0 {
			t.Fail()
		}
	}
}

// TestActivationGuardRejects pins what each body hands back: a group
// holding a saturated, tiny, NaN or near-midpoint lane is not written —
// a whole group, and for the AVX-512 body a masked last group of three.
func TestActivationGuardRejects(t *testing.T) {
	nan := float32(math.NaN())
	cases := []struct {
		tanh bool
		x    float32
	}{
		{false, 100}, {false, -100}, {false, nan}, {false, math.Float32frombits(0x3f283bf2)},
		{true, 100}, {true, 1e-38}, {true, nan}, {true, math.Float32frombits(0x3f172be6)},
	}
	eachActBody(t, func(t *testing.T, body actBody) {
		ns := []int{body.width}
		if body.masked {
			ns = append(ns, 3)
		}
		for _, c := range cases {
			for _, n := range ns {
				var x, dst [8]float32
				for i := range x {
					x[i], dst[i] = []float32{0.5, -0.5, 1, -1}[i%4], 7
				}
				x[1] = c.x
				want := dst
				if got := body.group(&dst[0], &x[0], n, c.tanh); got != 0 || dst != want {
					t.Errorf("%s %s body kept a group of %d holding %v (%#08x): wrote %d, dst %v",
						body.name, actNames[b2i(c.tanh)], n, c.x, math.Float32bits(c.x), got, dst)
				}
			}
		}
	})
}

// TestActivationProbeOffRunsScalar reaches the scalar loop through the
// probe variables and holds the bound body to its bits on Gaussian
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
			act, block := hasActBody, hasBlockBody
			hasActBody, hasBlockBody = false, false
			if n := actVec(scalar, x, vec.name == "TanhVec"); n != 0 {
				t.Fatalf("probe off: vector body wrote %d elements", n)
			}
			vec.f(scalar, x)
			hasActBody, hasBlockBody = act, block
			for i := range x {
				if !sameBits(fast[i], scalar[i]) {
					t.Fatalf("%s σ=%v lane %d (x=%v): probe on %#08x, probe off %#08x",
						vec.name, sigma, i, x[i], math.Float32bits(fast[i]), math.Float32bits(scalar[i]))
				}
			}
		}
	}
}
