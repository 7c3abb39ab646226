//go:build !amd64

package tensor

// dotRowSSE2 on architectures without an assembly body is the chain
// definition itself (kernel.go's dotRowGeneric).
func dotRowSSE2(row, x []float32) float32 { return dotRowGeneric(row, x) }

// dotQuadAVX is never bound off amd64 (hasQuadBody is false): the
// four-row call is four calls of the row body. It exists so the
// resolution table compiles on every architecture.
func dotQuadAVX(r0, r1, r2, r3, x []float32) (float32, float32, float32, float32) {
	return dotRowGeneric(r0, x), dotRowGeneric(r1, x), dotRowGeneric(r2, x), dotRowGeneric(r3, x)
}

// dotBlockAVX512 is never bound off amd64 (hasBlockBody is false): the
// block call is four four-row calls. It exists so the resolution table
// compiles on every architecture.
func dotBlockAVX512(r0, r1, r2, r3, x0, x1, x2, x3 []float32) (out [4][4]float32) {
	for b, x := range [4][]float32{x0, x1, x2, x3} {
		out[b][0], out[b][1], out[b][2], out[b][3] = dotQuadAVX(r0, r1, r2, r3, x)
	}
	return out
}
