package tensor

// The shared inner kernels of the GEMV family. Every kernel in this
// package — serial or packed — reduces each output element to exactly
// one row dot of the chain its Kernels value is bound to, so results
// are bitwise identical however rows are blocked, sharded across
// goroutines, or scattered across united-gate destinations. Do not add
// a kernel with a different summation order: the equivalence tests (and
// the lstm/gru bitwise-determinism guarantees) all lean on this
// invariant.

// Kernels is the GEMV/GEMM kernel family bound to one accumulation
// chain (KernelsFor): each shape is written once as a method — its
// validation, traversal and fork-join sharding — and dots rows through
// the binding's body. The canonical chain's bodies (ChainGeneric,
// ChainSSE2) are bitwise interchangeable; the wide chain (ChainAVX2)
// has its own wide-vs-wide contract and drifts a few ULP from the
// canonical bits, so one run uses one Kernels value throughout.
type Kernels struct {
	// dot is the row body: row · x[:len(row)], one accumulation chain.
	dot func(row, x []float32) float32
}

// dotRowGeneric is the reference row kernel and the definition of the
// canonical accumulation chain: sixteen partial sums over the
// 16-strided lanes, held as four groups of four (each group is the
// image of one SSE register), folded lanewise as (A+B)+(C+D) and then
// scalar as ((l0+l1)+l2)+l3, with a serial remainder. dot_amd64.s
// carries the same chain in packed SSE2 — MULPS/ADDPS apply lanewise,
// so each XMM register holds exactly one group's four sums and the
// assembly is bitwise identical to this function (pinned by
// TestDotRowMatchesGeneric). The x re-slice lets the compiler prove
// both index streams in-bounds, erasing the per-element checks.
func dotRowGeneric(row, x []float32) float32 {
	n := len(row)
	x = x[:n]
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	var c0, c1, c2, c3 float32
	var d0, d1, d2, d3 float32
	j := 0
	for ; j+16 <= n; j += 16 {
		a0 += row[j] * x[j]
		a1 += row[j+1] * x[j+1]
		a2 += row[j+2] * x[j+2]
		a3 += row[j+3] * x[j+3]
		b0 += row[j+4] * x[j+4]
		b1 += row[j+5] * x[j+5]
		b2 += row[j+6] * x[j+6]
		b3 += row[j+7] * x[j+7]
		c0 += row[j+8] * x[j+8]
		c1 += row[j+9] * x[j+9]
		c2 += row[j+10] * x[j+10]
		c3 += row[j+11] * x[j+11]
		d0 += row[j+12] * x[j+12]
		d1 += row[j+13] * x[j+13]
		d2 += row[j+14] * x[j+14]
		d3 += row[j+15] * x[j+15]
	}
	l0 := (a0 + b0) + (c0 + d0)
	l1 := (a1 + b1) + (c1 + d1)
	l2 := (a2 + b2) + (c2 + d2)
	l3 := (a3 + b3) + (c3 + d3)
	s := ((l0 + l1) + l2) + l3
	for ; j < n; j++ {
		s += row[j] * x[j]
	}
	return s
}

// span computes dst[i] = row(row0+i) · x for every i in
// [0, len(dst)) — the shared row-range body of Gemv and the packed
// kernels. Every row is one dot chain, so shard and segment boundaries
// never change a single output bit.
func (k Kernels) span(dst Vector, m *Matrix, x Vector, row0 int) {
	n := m.Cols
	for i := range dst {
		r := row0 + i
		dst[i] = k.dot(m.Data[r*n:r*n+n], x)
	}
}
