package tensor

import "slices"

// The shared inner kernels of the GEMV family. Every kernel in this
// package — serial or packed — reduces each output element to exactly
// one row dot of the chain its Kernels value is bound to, so results
// are bitwise identical however rows and inputs are blocked (four rows
// per dot4 call, four rows × four inputs per dot4x4 call, tiled,
// gathered under a mask), sharded across goroutines, or scattered
// across united-gate destinations. Do not add a kernel with
// a different summation order: the equivalence tests (and the lstm/gru
// bitwise-determinism guarantees) all lean on this invariant.

// Kernels is the GEMV/GEMM kernel family bound to one accumulation
// chain (KernelsFor): each shape is written once as a method — its
// validation, traversal and fork-join sharding — and dots rows through
// the binding's bodies. The canonical chain's bodies (ChainGeneric,
// ChainSSE2 with or without the four-row and block bodies) are bitwise
// interchangeable; the wide chain (ChainAVX2)
// has its own wide-vs-wide contract and drifts a few ULP from the
// canonical bits, so one run uses one Kernels value throughout.
type Kernels struct {
	// dot is the row body: row · x[:len(row)], one accumulation chain.
	dot rowBodyFn
	// quad, when bound, is a four-row body of the same chain: four rows
	// of one length against one x per call, each output bitwise its row
	// body's. nil means dot4 makes four row-body calls.
	quad quadBodyFn
	// block, when bound, is a four-row × four-input body of the same
	// chain: out[b][i] is bitwise the row body's dot of ri and xb. nil
	// means dot4x4 makes four dot4 calls.
	block blockBodyFn
}

// rowBodyFn, quadBodyFn and blockBodyFn are the body signatures of
// Kernels.
type (
	rowBodyFn   = func(row, x []float32) float32
	quadBodyFn  = func(r0, r1, r2, r3, x []float32) (float32, float32, float32, float32)
	blockBodyFn = func(r0, r1, r2, r3, x0, x1, x2, x3 []float32) [4][4]float32
)

// dotRowGeneric is the reference row kernel and the definition of the
// canonical accumulation chain: sixteen partial sums over the
// 16-strided lanes, held as four groups of four (each group is the
// image of one SSE register), folded lanewise as (A+B)+(C+D) and then
// scalar as ((l0+l1)+l2)+l3, with a serial remainder. dot_amd64.s
// carries the same chain in packed SSE2 — MULPS/ADDPS apply lanewise,
// so each XMM register holds exactly one group's four sums and the
// assembly is bitwise identical to this function (pinned by
// TestDotRowMatchesGeneric); dot_quad_amd64.s carries it for four rows
// at once with two groups per YMM register (TestDotQuadMatchesGeneric),
// and dot_block_amd64.s for four rows against four inputs with all four
// groups in one ZMM register per (row, input) pair
// (TestDotBlockMatchesGeneric). The x re-slice lets the compiler prove
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

// dot4 dots four rows of one length against x: one call of the bound
// four-row body, or four calls of the row body where none is bound.
// Either way output k is the row body's dot of rk — bitwise the same
// chain — so the kernels below keep one traversal for every binding.
func (k Kernels) dot4(r0, r1, r2, r3, x []float32) (float32, float32, float32, float32) {
	if k.quad != nil {
		return k.quad(r0, r1, r2, r3, x)
	}
	return k.dot(r0, x), k.dot(r1, x), k.dot(r2, x), k.dot(r3, x)
}

// dot4x4 dots four rows of one length against four inputs: one call of
// the bound block body, or four dot4 calls where none is bound — just
// as dot4 falls back to four row-body calls. Either way out[b][i] is
// the row body's dot of ri and xb, so a blocked traversal is one
// traversal for every binding.
func (k Kernels) dot4x4(r0, r1, r2, r3, x0, x1, x2, x3 []float32) (out [4][4]float32) {
	if k.block != nil {
		return k.block(r0, r1, r2, r3, x0, x1, x2, x3)
	}
	for b, x := range [4][]float32{x0, x1, x2, x3} {
		out[b][0], out[b][1], out[b][2], out[b][3] = k.dot4(r0, r1, r2, r3, x)
	}
	return out
}

// span computes dst[i] = row(row0+i) · x for every i in
// [0, len(dst)) — the shared row-range body of Gemv and the packed
// kernels — four rows per dot4 call and the last len(dst)%4 through
// the row body. Every row is one dot chain, so shard, segment and
// four-row boundaries never change a single output bit.
func (k Kernels) span(dst Vector, m *Matrix, x Vector, row0 int) {
	n := m.Cols
	w := m.Data[row0*n : (row0+len(dst))*n]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		q := w[i*n : (i+4)*n]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = k.dot4(q[:n], q[n:2*n], q[2*n:3*n], q[3*n:], x)
	}
	for ; i < len(dst); i++ {
		dst[i] = k.dot(w[i*n:i*n+n], x)
	}
}

// span4 is span over four inputs at once: dsts[b][i] = row(row0+i) ·
// xs[b] for every i in [0, len(dsts[0])), the four destinations of one
// length. Rows go four at a time through dot4x4, so each weight row is
// loaded once per four inputs; the last len(dsts[0])%4 rows go through
// the row body, once per input. Every (row, input) pair is one dot
// chain, dotted exactly once.
func (k Kernels) span4(dsts [4]Vector, m *Matrix, xs [4][]float32, row0 int) {
	n, rows := m.Cols, len(dsts[0])
	w := m.Data[row0*n : (row0+rows)*n]
	i := 0
	for ; i+4 <= rows; i += 4 {
		q := w[i*n : (i+4)*n]
		out := k.dot4x4(q[:n], q[n:2*n], q[2*n:3*n], q[3*n:], xs[0], xs[1], xs[2], xs[3])
		for b, d := range dsts {
			copy(d[i:i+4], out[b][:])
		}
	}
	for ; i < rows; i++ {
		row := w[i*n : i*n+n]
		for b, d := range dsts {
			d[i] = k.dot(row, xs[b])
		}
	}
}

// RowMask is a Dynamic Row Skip mask compacted into its kept rows — the
// host's CTA Reorganization Module (§V-B, Fig. 12), which prefix-sums a
// launch's surviving rows into dense thread blocks so that a skipped row
// costs no lane and no branch. Kept lists the computed rows of one
// Seg-row segment, strictly ascending in [0, Seg). The mask tiles a
// united matrix whose row count is a multiple of Seg: united row g·Seg+r
// is computed exactly when r is in Kept, and every other row is skipped.
// The zero RowMask, like any mask that keeps all Seg rows, skips nothing.
type RowMask struct {
	Seg  int
	Kept []int
}

// skips reports whether the mask skips any row.
func (mk RowMask) skips() bool { return len(mk.Kept) < mk.Seg }

// maskOf compacts a []bool mask (skip[r] marks row r skipped) into a
// RowMask over len(skip) rows; a nil skip is the zero mask.
func maskOf(skip []bool) RowMask {
	kept := make([]int, 0, len(skip))
	for r, s := range skip {
		if !s {
			kept = append(kept, r)
		}
	}
	return RowMask{Seg: len(skip), Kept: kept}
}

// spanKept is span under a compacted DRS mask: dst[i] = row(row0+i) · x
// for the rows mk keeps and fill for the others. The skipped outputs
// are filled in one pass; then the kept rows of [row0, row0+len(dst))
// are read off mk's list segment by segment — the walk may start and end
// inside a segment (a fork shard's edge), found by binary search — and
// dotted four at a time through dot4, the gather carried across segment
// edges, so only the call's last 1–3 kept rows go through the row body.
// No row is tested: DRS skips the work, not just the outputs.
func (k Kernels) spanKept(dst Vector, m *Matrix, x Vector, row0 int, mk RowMask, fill float32) {
	for i := range dst {
		dst[i] = fill
	}
	n, seg, end := m.Cols, mk.Seg, row0+len(dst)
	row := func(i int) []float32 { o := (row0 + i) * n; return m.Data[o : o+n] }
	var at [4]int // gathered rows waiting for a dot4, as dst indices
	g := 0
	for base := row0 - row0%seg; base < end; base += seg {
		kept := mk.Kept
		if base+seg > end {
			kept = kept[:firstAtLeast(kept, end-base)]
		}
		if base < row0 {
			kept = kept[firstAtLeast(kept, row0-base):]
		}
		off := base - row0
		for ; g > 0 && len(kept) > 0; kept = kept[1:] {
			if at[g] = off + kept[0]; g < 3 {
				g++
				continue
			}
			dst[at[0]], dst[at[1]], dst[at[2]], dst[at[3]] =
				k.dot4(row(at[0]), row(at[1]), row(at[2]), row(at[3]), x)
			g = 0
		}
		for ; len(kept) >= 4; kept = kept[4:] {
			i0, i1, i2, i3 := off+kept[0], off+kept[1], off+kept[2], off+kept[3]
			dst[i0], dst[i1], dst[i2], dst[i3] = k.dot4(row(i0), row(i1), row(i2), row(i3), x)
		}
		for _, r := range kept {
			at[g] = off + r
			g++
		}
	}
	for _, i := range at[:g] {
		dst[i] = k.dot(row(i), x)
	}
}

// firstAtLeast returns the index of the first kept row at or past r.
func firstAtLeast(kept []int, r int) int {
	i, _ := slices.BinarySearch(kept, r)
	return i
}
