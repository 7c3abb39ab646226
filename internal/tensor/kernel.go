package tensor

import "slices"

// The shared inner kernels of the GEMV family. Every kernel in this
// package — serial or packed — reduces each output element to exactly
// one row dot of the chain its Kernels value is bound to, so results
// are bitwise identical however rows and inputs are blocked (four rows
// per group, four rows × four inputs per block, tiled, gathered under a
// mask), sharded across goroutines, or scattered across united-gate
// destinations. Do not add a kernel with a different summation order:
// the equivalence tests (and the lstm/gru bitwise-determinism
// guarantees) all lean on this invariant.

// Kernels is the GEMV/GEMM kernel family bound to one accumulation
// chain (KernelsFor): each shape is written once as a method — its
// validation, traversal and fork-join sharding — and dots rows through
// the binding's bodies. The canonical chain's bodies (ChainGeneric, and
// ChainSSE2 with the AVX-512 one-input and block bodies, with the AVX
// one-input body, or with neither) are bitwise interchangeable; the
// wide chain (ChainAVX2) has its own wide-vs-wide contract and drifts a
// few ULP from the canonical bits, so one run uses one Kernels value
// throughout.
//
// Besides the row body, a binding has three span bodies, each called
// once per span rather than once per four rows: a vector body pays its
// call — argument set-up, bounds proofs, the ABI transition — once for
// a whole row range or kept-row list, the host's counterpart of the
// paper's one launch for many rows (§IV-C). The range and the list are
// one body: as in the CRM (§V-B, Fig. 12), a span that skips nothing is
// the list-less case of the compacted one, so quad and block take an
// optional kept list and its offset, and a nil list is the row range
// (a list that names no row must not be nil). Every span body computes
// whole groups of four rows only; its caller dots the last 1–3 rows
// through the row body. A span body receives its own binding, so the
// pure-Go spans (quadRows, gatherRows, blockRows) loop over the
// binding's row and one-input bodies, and a binding with no vector body
// keeps the one traversal of one with.
type Kernels struct {
	// dot is the row body: row · x[:len(row)], one accumulation chain.
	dot rowBodyFn
	// quad is the one-input span body: dst[i] = row i · x, where row i is
	// w[i*n:(i+1)*n] and n = len(x), for every i in [0, len(dst)&^3)
	// when kept is nil (the row range), and for every i = off+kept[j],
	// j in [0, len(kept)&^3), otherwise. A list is strictly ascending
	// and every such i lies in [0, len(dst)).
	quad quadBodyFn
	// gather is the one-input body over one group named by value: dst[i]
	// = row i · x for the four i of at, each in [0, len(dst)). A caller
	// whose indices live on its stack passes them here, by value, so
	// they never escape to the heap through the indirect call.
	gather gatherBodyFn
	// block is the four-row × four-input span body: dsts[b][i] = row i ·
	// xs[b] for the rows quad's would dot into dsts[b] (the range of
	// len(dsts[b]) rows, or the list's), and every input b whose
	// dsts[b] is non-nil — a nil destination marks an absent input, so
	// one call serves a group of one to four inputs. The present
	// destinations have one length and n = len(xs[b]) for each of them.
	block blockBodyFn
}

// rowBodyFn is the row body's signature; quadBodyFn, gatherBodyFn and
// blockBodyFn are the span bodies' (see Kernels).
type (
	rowBodyFn    = func(row, x []float32) float32
	quadBodyFn   = func(k Kernels, dst, w, x []float32, kept []int, off int)
	gatherBodyFn = func(k Kernels, dst, w, x []float32, at [4]int)
	blockBodyFn  = func(k Kernels, dsts [4][]float32, w []float32, xs [4][]float32, kept []int, off int)
)

// goKernels binds row body dot with the pure-Go span bodies over it —
// every binding without a vector span body, and the base KernelsFor
// overrides where the probes allow.
func goKernels(dot rowBodyFn) Kernels {
	return Kernels{dot: dot, quad: quadRows, gather: gatherRows, block: blockRows}
}

// dotRowGeneric is the reference row kernel and the definition of the
// canonical accumulation chain: sixteen partial sums over the
// 16-strided lanes, held as four groups of four (each group is the
// image of one SSE register), folded lanewise as (A+B)+(C+D) and then
// scalar as ((l0+l1)+l2)+l3, with a serial remainder. dot_amd64.s
// carries the same chain in packed SSE2 — MULPS/ADDPS apply lanewise,
// so each XMM register holds exactly one group's four sums and the
// assembly is bitwise identical to this function (pinned by
// TestDotRowMatchesGeneric); dot_quad_amd64.s carries it for the
// four-row groups of a span against one x with two groups per YMM
// register, and dot_block_amd64.s with all four groups in one ZMM
// register per row (TestDotQuadMatchesGeneric pins both), and for the
// four-row groups of a row range or a kept-row list against four inputs
// with one ZMM register per (row, input) pair
// (TestDotBlockMatchesGeneric over a range, TestDotKeptBlockMatchesGeneric
// over lists). The x
// re-slice lets the compiler prove both index streams in-bounds,
// erasing the per-element checks.
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

// quadRows is the pure-Go four-row span: each row of the whole groups
// — of the range when kept is nil, of the list otherwise — one call of
// k's row body.
func quadRows(k Kernels, dst, w, x []float32, kept []int, off int) {
	n := len(x)
	if kept == nil {
		for i := range len(dst) &^ 3 {
			dst[i] = k.dot(w[i*n:i*n+n], x)
		}
		return
	}
	for _, r := range kept[:len(kept)&^3] {
		i := off + r
		dst[i] = k.dot(w[i*n:i*n+n], x)
	}
}

// gatherRows is the pure-Go gather: quadRows over the four indices.
func gatherRows(k Kernels, dst, w, x []float32, at [4]int) { quadRows(k, dst, w, x, at[:], 0) }

// blockRows is the pure-Go block span: one four-row span of k per
// present input, each output the row body's dot of its pair.
func blockRows(k Kernels, dsts [4][]float32, w []float32, xs [4][]float32, kept []int, off int) {
	for b, d := range dsts {
		if d != nil {
			k.quad(k, d, w, xs[b], kept, off)
		}
	}
}

// span computes dst[i] = row(row0+i) · x for every i in
// [0, len(dst)) — the shared row-range body of Gemv and the packed
// kernels — in one call of the four-row span body and the last
// len(dst)%4 rows through the row body. Every row is one dot chain, so
// shard, segment and four-row boundaries never change a single output
// bit.
func (k Kernels) span(dst Vector, m *Matrix, x Vector, row0 int) {
	n, rows := m.Cols, len(dst)
	w, x := m.Data[row0*n:(row0+rows)*n], x[:n]
	k.quad(k, dst, w, x, nil, 0)
	for i := rows &^ 3; i < rows; i++ {
		dst[i] = k.dot(w[i*n:i*n+n], x)
	}
}

// span4 is span over four inputs at once: dsts[b][i] = row(row0+i) ·
// xs[b] for every i in [0, len(dsts[0])), the four destinations of one
// length. One call of the block span body dots the whole four-row
// groups, so each weight row is loaded once per four inputs; the last
// len(dsts[0])%4 rows go through the row body, once per input. Every
// (row, input) pair is one dot chain, dotted exactly once.
func (k Kernels) span4(dsts [4][]float32, m *Matrix, xs [4][]float32, row0 int) {
	n, rows := m.Cols, len(dsts[0])
	w := m.Data[row0*n : (row0+rows)*n]
	for b := range xs {
		xs[b] = xs[b][:n]
	}
	k.block(k, dsts, w, xs, nil, 0)
	for i := rows &^ 3; i < rows; i++ {
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

// badKept returns the position of the first entry of Kept that breaks
// its contract — strictly ascending in [0, Seg) — or -1: one pass that
// proves every index a walk of the list gathers.
func (mk RowMask) badKept() int {
	prev := -1
	for j, r := range mk.Kept {
		if r <= prev || r >= mk.Seg {
			return j
		}
		prev = r
	}
	return -1
}

// spanKept is span under a compacted DRS mask: dst[i] = row(row0+i) · x
// for the rows mk keeps and fill for the others. The skipped outputs
// are filled in one pass; then the kept rows of [row0, row0+len(dst))
// are read off mk's list segment by segment — the walk may start and end
// inside a segment (a fork shard's edge), found by binary search — one
// kept span body call per segment. A segment's 1–3 rows past its last
// whole group are carried into the next segment's first group, which
// goes through the gather body, so only the call's last 1–3 kept rows go
// through the row body. No row is tested: DRS skips the work, not just
// the outputs.
func (k Kernels) spanKept(dst Vector, m *Matrix, x Vector, row0 int, mk RowMask, fill float32) {
	dst.Fill(fill)
	if len(mk.Kept) == 0 {
		return // and a nil list would name the whole range
	}
	n, seg, end := m.Cols, mk.Seg, row0+len(dst)
	w, x := m.Data[row0*n:end*n], x[:n]
	var at [4]int // carried rows waiting for a group, as dst indices
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
			k.gather(k, dst, w, x, at)
			g = 0
		}
		k.quad(k, dst, w, x, kept, off)
		for _, r := range kept[len(kept)&^3:] {
			at[g] = off + r
			g++
		}
	}
	for _, i := range at[:g] {
		dst[i] = k.dot(w[i*n:i*n+n], x)
	}
}

// skipChunk is how many mask rows spanSkip compacts at a time.
const skipChunk = 64

// spanSkip is spanKept for a []bool mask over one segment: dst[i] =
// row i of w · x where skip[i] is false, and fill where it is true. The
// mask is compacted skipChunk rows at a time into a list on the stack,
// with no per-row branch, and each chunk's whole groups go through the
// gather body by value, so the list never escapes; the 1–3 rows past a
// chunk's last group are held for the next, and the call's last 1–3
// kept rows go through the row body.
func (k Kernels) spanSkip(dst Vector, w []float32, x Vector, skip []bool, fill float32) {
	dst.Fill(fill)
	n := len(x)
	var buf [skipChunk + 3]int
	held := 0
	for c0 := 0; c0 < len(skip); c0 += skipChunk {
		c := held
		for r, s := range skip[c0:min(c0+skipChunk, len(skip))] {
			buf[c] = c0 + r
			if !s {
				c++
			}
		}
		list := buf[:c]
		for ; len(list) >= 4; list = list[4:] {
			k.gather(k, dst, w, x, [4]int(list))
		}
		held = copy(buf[:], list)
	}
	for _, i := range buf[:held] {
		dst[i] = k.dot(w[i*n:i*n+n], x)
	}
}

// firstAtLeast returns the index of the first kept row at or past r.
func firstAtLeast(kept []int, r int) int {
	i, _ := slices.BinarySearch(kept, r)
	return i
}
