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

// sigmoid8 and tanh8 are implemented in act512_amd64.s: the same
// contract over groups of eight, with a masked last group, so n may be
// any count.
//
//go:noescape
func sigmoid8(dst, x *float32, n int) int

//go:noescape
func tanh8(dst, x *float32, n int) int

// actVec runs the vector activation body the CPU allows — the AVX-512
// one where hasBlockBody holds, else the AVX2+FMA one — and returns how
// many leading elements of dst it wrote (0 where the probes or a
// forced-generic process default rule both out).
func actVec(dst, x Vector, tanh bool) int {
	if ActiveKernelChain() == ChainGeneric {
		return 0
	}
	switch {
	case hasBlockBody:
		return actBody512(dst, x, tanh)
	case hasActBody:
		return actBody256(dst, x, tanh)
	}
	return 0
}

// actBody256 runs the AVX2+FMA body over the whole groups of four of x
// and returns how many leading elements of dst it wrote, without the
// gate: the activation sweeps call it directly, whatever the process
// default. A group the body stops at is recomputed here by the scalar
// reference from x, which the body left untouched, so dst may alias x.
func actBody256(dst, x Vector, tanh bool) int {
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

// actBody512 is actBody256 for the AVX-512 body: it covers all of x,
// the body's masked last group taking the remainder, and the scalar
// reference recomputes each group of eight the body stops at.
func actBody512(dst, x Vector, tanh bool) int {
	n := len(x)
	for i := 0; i < n; i += 8 {
		if tanh {
			i += tanh8(&dst[i], &x[i], n-i)
		} else {
			i += sigmoid8(&dst[i], &x[i], n-i)
		}
		if i == n {
			break
		}
		for k := i; k < min(i+8, n); k++ {
			dst[k] = actRef(x[k], tanh)
		}
	}
	return n
}
