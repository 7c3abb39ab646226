//go:build !amd64

package tensor

// Off amd64 hasBlockBody is false: every element-wise primitive runs its
// pure-Go twin and none of these is called. They exist so elem.go
// compiles on every architecture.

func sum3x16(dst, a, b, c *float32, n int)                                 {}
func gatherSum3x16(dst, a, b, c *float32, words *uint16, nw, n int) bool   { return false }
func cellState16(s, f, i, u *float32, words *uint16, nw, rows, n int) bool { return false }
func scatterMul16(dst, o, v *float32, words *uint16, nw, rows, n int) bool { return false }
func blend16(h, z, u *float32, words *uint16, nw, n int) bool              { return false }
func keepMask16(words *uint16, o *float32, n int, a float32)               {}
func listRows16(dst *int, words *uint16, nw int) int                       { return 0 }

// ascendingVec is undecided off amd64: badKept's loop decides.
func ascendingVec(list []int) bool { return false }
