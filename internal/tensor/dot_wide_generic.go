//go:build !amd64

package tensor

// dotRowAVX2 is never bound off amd64 (hasWideBody is false): the wide
// chain runs its definition, kernel_wide.go's dotRowWideGeneric.
func dotRowAVX2(row, x []float32) float32 { return dotRowWideGeneric(row, x) }
