//go:build amd64

package tensor

// The element-wise bodies in elem_amd64.s, sixteen float32 rows per
// step, AVX-512F (and POPCNT, which every AVX-512 CPU has). The
// wrappers in elem.go check every length first: a body reads and writes
// only rows below its n or rows the mask words name, and the packed
// vectors only as far as their length.

// sum3x16 sets dst[j] = a[j] + b[j] + c[j] for j < n.
//
//go:noescape
func sum3x16(dst, a, b, c *float32, n int)

// gatherSum3x16 packs a[j] + b[j] + c[j] of the rows the words name
// into dst, n long. The bodies that walk packed vectors report false
// when the words name other than n rows, having touched none past n.
//
//go:noescape
func gatherSum3x16(dst, a, b, c *float32, words *uint16, nw, n int) bool

// cellState16 is CellState over the rows < rows: c into s (zero at the
// rows the words leave out) and packed into f.
//
//go:noescape
func cellState16(s, f, i, u *float32, words *uint16, nw, rows, n int) bool

// scatterMul16 is ScatterMul over the rows < rows.
//
//go:noescape
func scatterMul16(dst, o, v *float32, words *uint16, nw, rows, n int) bool

// blend16 is Blend: h written only at the rows the words name.
//
//go:noescape
func blend16(h, z, u *float32, words *uint16, nw, n int) bool

// keepMask16 ORs into the words the rows j < n with o[j] >= a.
//
//go:noescape
func keepMask16(words *uint16, o *float32, n int, a float32)

// listRows16 writes the rows the words name, ascending, to dst and
// returns how many.
//
//go:noescape
func listRows16(dst *int, words *uint16, nw int) int

// ascending8 reports whether list[0..n) rises strictly, eight
// neighbours per compare.
//
//go:noescape
func ascending8(list *int, n int) bool

// ascendingVec is ascending8 where the AVX-512 bodies are bound, and
// false — undecided, the caller's loop decides — elsewhere.
func ascendingVec(list []int) bool {
	return len(list) > 1 && hasBlockBody && ActiveKernelChain() != ChainGeneric && ascending8(&list[0], len(list))
}
