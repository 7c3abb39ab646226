//go:build !amd64

package tensor

// dotRowSSE2 on architectures without an assembly body is the chain
// definition itself (kernel.go's dotRowGeneric).
func dotRowSSE2(row, x []float32) float32 { return dotRowGeneric(row, x) }
