package tensor

import "math"

// Activation identifies one of the activation functions used inside an
// LSTM cell. The paper analyses both the exact sigmoid and the "hard
// sigmoid" approximation some frameworks substitute for speed (§IV-A); both
// share the same sensitive area [-2, 2].
type Activation int

const (
	// ActSigmoid is the logistic function 1/(1+e^-x).
	ActSigmoid Activation = iota
	// ActHardSigmoid is the piecewise-linear approximation
	// clamp(0.25x + 0.5, 0, 1) used by fast frameworks.
	ActHardSigmoid
	// ActTanh is the hyperbolic tangent.
	ActTanh
)

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// HardSigmoid returns clamp(0.25x + 0.5, 0, 1), the fast approximation
// from Fig. 7(a). It is exactly 0 below -2 and exactly 1 above +2.
func HardSigmoid(x float32) float32 {
	y := 0.25*x + 0.5
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}

// Tanh returns the hyperbolic tangent of x.
func Tanh(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}

// Apply evaluates the activation a at x.
func (a Activation) Apply(x float32) float32 {
	switch a {
	case ActSigmoid:
		return Sigmoid(x)
	case ActHardSigmoid:
		return HardSigmoid(x)
	case ActTanh:
		return Tanh(x)
	default:
		Panicf("tensor: unknown activation %d", int(a))
		return 0 // unreachable
	}
}

// String returns the conventional name of the activation.
func (a Activation) String() string {
	switch a {
	case ActSigmoid:
		return "sigmoid"
	case ActHardSigmoid:
		return "hard_sigmoid"
	case ActTanh:
		return "tanh"
	default:
		return "unknown"
	}
}

// SigmoidVec applies the sigmoid element-wise: dst[i] = σ(x[i]), bitwise
// Sigmoid(x[i]). dst and x may alias. Where the CPU probe allows, an
// AVX2+FMA body computes the bulk (act_amd64.s) and every lane its
// rounding guard rejects is recomputed by Sigmoid; DESIGN.md §7 states
// the contract.
func SigmoidVec(dst, x Vector) {
	if len(dst) != len(x) {
		Panicf("tensor: SigmoidVec length mismatch")
	}
	for i := actVec(dst, x, false); i < len(x); i++ {
		dst[i] = Sigmoid(x[i])
	}
}

// TanhVec applies tanh element-wise: dst[i] = tanh(x[i]), bitwise
// Tanh(x[i]). dst and x may alias. The vector body and its fallback are
// SigmoidVec's.
func TanhVec(dst, x Vector) {
	if len(dst) != len(x) {
		Panicf("tensor: TanhVec length mismatch")
	}
	for i := actVec(dst, x, true); i < len(x); i++ {
		dst[i] = Tanh(x[i])
	}
}

// actRef is the scalar reference a vector lane must match.
func actRef(x float32, tanh bool) float32 {
	if tanh {
		return Tanh(x)
	}
	return Sigmoid(x)
}
