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
