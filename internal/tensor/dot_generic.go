//go:build !amd64

package tensor

// dotRowSSE2 on architectures without an assembly body is the chain
// definition itself (kernel.go's dotRowGeneric).
func dotRowSSE2(row, x []float32) float32 { return dotRowGeneric(row, x) }

// The span bodies are never bound off amd64 (hasQuadBody and
// hasBlockBody are false): every binding runs the pure-Go spans of
// kernel.go. They exist so the resolution table compiles on every
// architecture.

func quadSpanAVX(k Kernels, dst, w, x []float32, kept []int, off int) {
	quadRows(k, dst, w, x, kept, off)
}

func gatherAVX(k Kernels, dst, w, x []float32, at [4]int) { gatherRows(k, dst, w, x, at) }

func quadSpanAVX512(k Kernels, dst, w, x []float32, kept []int, off int) {
	quadRows(k, dst, w, x, kept, off)
}

func gatherAVX512(k Kernels, dst, w, x []float32, at [4]int) { gatherRows(k, dst, w, x, at) }

func blockSpanAVX512(k Kernels, dsts [4][]float32, w []float32, xs [4][]float32, kept []int, off int) {
	blockRows(k, dsts, w, xs, kept, off)
}
