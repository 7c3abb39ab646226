package tensor

import (
	"math"
	"testing"

	"mobilstm/internal/rng"
)

// dotSizes cross the 16-float block boundary and every remainder class,
// from the empty row up to the paper's h = 650.
var dotSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 100, 127, 192, 650}

// TestDotRowMatchesGeneric pins dotRowSSE2 (SSE2 assembly on amd64,
// alias of the Go chain elsewhere) to the chain definition in
// dotRowGeneric, bitwise, across block boundaries, remainders, and the
// empty row.
func TestDotRowMatchesGeneric(t *testing.T) {
	r := rng.New(0x61)
	for _, n := range dotSizes {
		row := make([]float32, n)
		x := make([]float32, n+3) // x may be longer than row; only x[:n] is read
		for i := range row {
			row[i] = float32(r.Norm())
		}
		for i := range x {
			x[i] = float32(r.Norm())
		}
		got := dotRowSSE2(row, x)
		want := dotRowGeneric(row, x)
		if got != want {
			t.Errorf("n=%d: dotRowSSE2=%v dotRowGeneric=%v", n, got, want)
		}
	}
}

// TestDotRowAdversarialValues exercises cancellation-heavy inputs where
// any reassociation between the assembly and Go chains would surface as
// a bit difference.
func TestDotRowAdversarialValues(t *testing.T) {
	r := rng.New(0x62)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		row := make([]float32, n)
		x := make([]float32, n)
		for i := range row {
			// Wildly varying magnitudes: rounding differs under any
			// alternative summation order.
			row[i] = float32(r.Norm() * r.Float64() * 1e6)
			x[i] = float32(r.Norm() / (1 + r.Float64()*1e5))
		}
		got := dotRowSSE2(row, x)
		want := dotRowGeneric(row, x)
		if got != want {
			t.Fatalf("trial %d n=%d: dotRowSSE2=%v dotRowGeneric=%v", trial, n, got, want)
		}
	}
}

// sameBits is the bitwise contract with the one freedom IEEE leaves a
// body: when a lane is NaN, which NaN payload propagates.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}
