//go:build amd64

package tensor

// sigmoid4 and tanh4 are implemented in act_amd64.s: they write whole
// groups of four from the start of x until a group holds a lane the
// rounding guard rejects, and return how many elements they wrote. n
// must be a multiple of four.
//
//go:noescape
func sigmoid4(dst, x *float32, n int) int

//go:noescape
func tanh4(dst, x *float32, n int) int

// actVec runs the AVX2+FMA activation body over the whole groups of four
// of x and returns how many leading elements of dst it wrote (0 where
// the probe or a forced-generic process default rules the body out).
// A group the body stops at is recomputed here by the scalar reference
// from x, which the body left untouched, so dst may alias x.
func actVec(dst, x Vector, tanh bool) int {
	if !hasActBody || ActiveKernelChain() == ChainGeneric {
		return 0
	}
	return actBody(dst, x, tanh)
}

// actBody is actVec without the gate: the activation sweeps call it
// directly, whatever the process default.
func actBody(dst, x Vector, tanh bool) int {
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		if tanh {
			i += tanh4(&dst[i], &x[i], n-i)
		} else {
			i += sigmoid4(&dst[i], &x[i], n-i)
		}
		if i == n {
			break
		}
		for k := i; k < i+4; k++ {
			dst[k] = actRef(x[k], tanh)
		}
	}
	return n
}
