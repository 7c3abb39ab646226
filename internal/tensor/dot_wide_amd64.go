//go:build amd64

package tensor

// dotRowAVX2 carries the wide row chain in the AVX2+FMA body in
// dot_avx2_amd64.s. rowBody binds it only where the CPU probe allows
// (hasWideBody); everywhere else ChainAVX2 runs dotRowWideGeneric — the
// chain and its determinism contract are the same, only the body
// changes. The slice contract stays in Go, exactly as in dotRowSSE2.
func dotRowAVX2(row, x []float32) float32 {
	n := len(row)
	if n == 0 {
		return 0
	}
	x = x[:n]
	return dotAVX2(&row[0], &x[0], n)
}

// dotAVX2 is implemented in dot_avx2_amd64.s. It must match
// dotRowWideGeneric bitwise on the pinned corpora; see the wide chain
// definition in kernel_wide.go.
func dotAVX2(row, x *float32, n int) float32
