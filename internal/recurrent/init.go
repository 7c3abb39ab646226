package recurrent

import (
	"math"

	"mobilstm/internal/rng"
)

// The pieces of the synthetic "trained" weight generators (DESIGN.md
// §5) that do not depend on the cell kind.

// InitHead fills the classification head: unit-variance rows give
// well-separated logits.
func (n *Network[C]) InitHead(r *rng.RNG) {
	scale := 1.4 / Sqrtf(float64(n.Head.Cols))
	for i := range n.Head.Data {
		n.Head.Data[i] = r.NormF32(0, scale)
	}
	for i := range n.HeadBias {
		n.HeadBias[i] = r.NormF32(0, 0.1)
	}
}

// Logit is the inverse sigmoid.
func Logit(p float64) float64 { return math.Log(p / (1 - p)) }

// Probit is the standard normal quantile function.
func Probit(p float64) float64 {
	if p <= 0 {
		return -8
	}
	if p >= 1 {
		return 8
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// Sqrtf is the square root, with 1 for non-positive input so a
// degenerate fan-in never divides by zero.
func Sqrtf(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Sqrt(x)
}
