//go:build amd64

package tensor

// dotRowSSE2 carries the canonical row chain in the SSE2 body in
// dot_amd64.s. The slice contract stays in Go: the re-slice panics
// exactly where dotRowGeneric would if x is shorter than row, and a
// zero-length row never takes the address of an empty slice.
func dotRowSSE2(row, x []float32) float32 {
	n := len(row)
	if n == 0 {
		return 0
	}
	x = x[:n]
	return dotSSE(&row[0], &x[0], n)
}

// dotSSE is implemented in dot_amd64.s. It must match dotRowGeneric
// bitwise; see the chain definition in kernel.go.
func dotSSE(row, x *float32, n int) float32

// dotQuadAVX carries the canonical chain four rows at a time in the
// AVX body in dot_quad_amd64.s: output k is bitwise dotRowGeneric(rk,
// x). The rows must share one length and x must be at least as long;
// as in dotRowSSE2 the re-slices keep the slice contract in Go.
// KernelsFor binds it only where the probe reports AVX with OS-saved
// YMM state (hasQuadBody) and the process is not forced generic.
func dotQuadAVX(r0, r1, r2, r3, x []float32) (float32, float32, float32, float32) {
	n := len(r0)
	if n == 0 {
		return 0, 0, 0, 0
	}
	r1, r2, r3, x = r1[:n], r2[:n], r3[:n], x[:n]
	return dot4AVX(&r0[0], &r1[0], &r2[0], &r3[0], &x[0], n)
}

// dot4AVX is implemented in dot_quad_amd64.s. Each result must match
// dotRowGeneric bitwise; see the chain definition in kernel.go.
func dot4AVX(r0, r1, r2, r3, x *float32, n int) (s0, s1, s2, s3 float32)

// dotBlockAVX512 carries the canonical chain four rows against four
// inputs at a time in the AVX-512 body in dot_block_amd64.s: out[b][i]
// is bitwise dotRowGeneric(ri, xb). The rows must share one length and
// every input must be at least as long; as in dotQuadAVX the re-slices
// keep the slice contract in Go. KernelsFor binds it only where the
// probe reports AVX-512F with OS-saved opmask and ZMM state
// (hasBlockBody) and the process is not forced generic.
func dotBlockAVX512(r0, r1, r2, r3, x0, x1, x2, x3 []float32) (out [4][4]float32) {
	n := len(r0)
	if n == 0 {
		return out
	}
	r1, r2, r3 = r1[:n], r2[:n], r3[:n]
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	dot4x4AVX512(&out, &r0[0], &r1[0], &r2[0], &r3[0], &x0[0], &x1[0], &x2[0], &x3[0], n)
	return out
}

// dot4x4AVX512 is implemented in dot_block_amd64.s. Each result must
// match dotRowGeneric bitwise; see the chain definition in kernel.go.
//
//go:noescape
func dot4x4AVX512(out *[4][4]float32, r0, r1, r2, r3, x0, x1, x2, x3 *float32, n int)
