// Package tensor implements the dense float32 linear algebra used by the
// LSTM library: vectors, row-major matrices, the GEMV/GEMM kernel
// family, and the activation functions from the paper (sigmoid, hard
// sigmoid, tanh).
//
// There is one kernel family, Kernels (kernel.go): every shape is a
// method written once and bound (KernelsFor, chain.go) to the bodies of
// a KernelChain — a row body and span bodies that dot the four-row
// groups of a whole row range, kept-row list or four inputs per call
// (in assembly where the chain and CPU have it, otherwise the pure-Go
// loops over the row body) — so all of a binding's kernels share one
// inner accumulation chain and are bitwise interchangeable:
//
//   - serial: Gemv — every output row is one row dot, a row range's
//     whole four-row groups in one span body call;
//   - packed (packed.go): PackedGemv/PackedGemvRows over a row-wise
//     united gate matrix (Pack; the paper's U_{f,i,c,o}), streaming
//     the input once per cell instead of once per gate — under a DRS
//     mask the kept rows are walked off a compacted list (RowMask), one
//     span body call per segment, so skipped rows cost neither a dot
//     nor a branch — and
//     the whole-layer / batch-B
//     PackedGemm/PackedGemmInto/PackedGemmRows/PackedGemmKept, whose
//     independent rows fan out over a size-gated fork-join
//     (parallel.go), bitwise identical to the serial kernels at any
//     GOMAXPROCS.
//
// The chains are the canonical 16-lane chain (dotRowGeneric; on amd64
// the SSE2 row body, with AVX the four-row span bodies and with
// AVX-512 the block span bodies) and the
// explicitly selected wide 32-lane FMA chain (dotRowWideGeneric,
// AVX2+FMA assembly on capable amd64), which
// carries its own wide-vs-wide bitwise contract and is not
// interchangeable with the canonical one. The package-level kernel
// functions are entry points onto the canonical binding.
//
// The package is deliberately small and allocation-conscious: LSTM
// inference is a long sequence of GEMV/GEMM calls over the same shapes, so
// every operation writes into a caller-provided destination and no kernel
// allocates unless it forks shards (one object per shard).
package tensor

import "math"

// Vector is a dense float32 vector.
type Vector []float32

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Fill sets every element of v to x. A +0 fill is a memory clear: the
// masked kernels fill every skipped row of every member's product on
// every step with it (the forward core's fill), where the element loop
// cost ~3 % of a served B = 4 window.
func (v Vector) Fill(x float32) {
	if math.Float32bits(x) == 0 {
		clear(v)
		return
	}
	for i := range v {
		v[i] = x
	}
}

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		Panicf("tensor: negative shape %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector {
	return Vector(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float32) { m.Data[i*m.Cols+j] = x }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SizeBytes returns the storage footprint of the matrix in bytes
// (4 bytes per float32), as loaded by a GPU kernel.
func (m *Matrix) SizeBytes() int64 { return int64(m.Rows) * int64(m.Cols) * 4 }

// Gemv computes dst = m · x. dst must have length m.Rows and x length
// m.Cols. Every row is one dot of k's chain.
func (k Kernels) Gemv(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		Panicf("tensor: Gemv shape mismatch: dst %d, m %dx%d, x %d",
			len(dst), m.Rows, m.Cols, len(x))
	}
	k.span(dst, m, x, 0)
}

// Gemv is Kernels.Gemv on the canonical chain — what calibration and
// every other chain-neutral caller uses.
func Gemv(dst Vector, m *Matrix, x Vector) { KernelsFor(ChainSSE2).Gemv(dst, m, x) }

// Add computes dst[i] = a[i] + b[i].
func Add(dst, a, b Vector) {
	if len(dst) != len(a) || len(a) != len(b) {
		Panicf("tensor: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Mul computes dst[i] = a[i] * b[i] (the Hadamard product used by the
// LSTM gate equations).
func Mul(dst, a, b Vector) {
	if len(dst) != len(a) || len(a) != len(b) {
		Panicf("tensor: Mul length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// AbsRowSums returns d[i] = Σ_j |m[i][j]|, the per-row L1 norms used by
// Algorithm 2 of the paper to bound U·h for h ∈ [-1, 1]^n.
func AbsRowSums(m *Matrix) Vector {
	d := NewVector(m.Rows)
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*n : i*n+n]
		var s float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			//lint:ignore detfloat Algorithm 2's L1 norms are a one-time offline bound, never on the logit path; the serial per-row order is itself deterministic
			s += v
		}
		d[i] = s
	}
	return d
}

// ArgMax returns the index of the largest element of v, breaking ties in
// favour of the lower index. It panics on an empty vector.
func ArgMax(v Vector) int {
	if len(v) == 0 {
		Panicf("tensor: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
