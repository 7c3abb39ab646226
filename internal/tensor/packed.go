package tensor

import "slices"

// United-gate packed kernels: the paper's central trick — concatenate
// the per-gate weight matrices row-wise into one united matrix
// (U_{f,i,c,o} is 4h×h, the GRU's U_{z,r} is 2h×h) and stream the input
// vector through it once per cell instead of once per gate. The packed
// kernels below are the host-side float32 counterparts of the
// Sgemv/Sgemm united kernels the GPU model replays: one weight stream,
// multiple gate outputs, bitwise identical to the per-gate serial calls
// (every output element is one dot chain; see kernel.go).

// Pack returns the row-wise concatenation of ms — the united matrix.
// All inputs must share a column count; the result owns fresh storage,
// so callers cache it and rebuild after weight mutation.
func Pack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		Panicf("tensor: Pack of no matrices")
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			Panicf("tensor: Pack column mismatch: %d vs %d", m.Cols, cols)
		}
		rows += m.Rows
	}
	p := NewMatrix(rows, cols)
	off := 0
	for _, m := range ms {
		copy(p.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return p
}

// RowBlock returns rows [lo, hi) of m as a matrix view aliasing m's
// storage (row-major rows are contiguous, so a row block is free). The
// packed layers use this to address one gate's block of a united
// matrix without copying.
func (m *Matrix) RowBlock(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		Panicf("tensor: RowBlock [%d, %d) of %d rows", lo, hi, m.Rows)
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// packedRows sums the destination lengths and validates them against
// the united matrix shape.
func packedRows(name string, dsts []Vector, m *Matrix, x Vector) int {
	rows := 0
	for _, d := range dsts {
		rows += len(d)
	}
	if rows != m.Rows || len(x) != m.Cols {
		Panicf("tensor: %s shape mismatch: dsts %d rows, m %dx%d, x %d",
			name, rows, m.Rows, m.Cols, len(x))
	}
	return rows
}

// PackedGemv computes the united product m · x and scatters the result
// into the per-gate destinations: dsts[0] receives the first len(dsts[0])
// rows, dsts[1] the next block, and so on. It is bitwise identical to
// one serial Gemv per row block — the input vector is simply streamed
// once over the united matrix instead of once per gate.
func (k Kernels) PackedGemv(dsts []Vector, m *Matrix, x Vector) {
	packedRows("PackedGemv", dsts, m, x)
	off := 0
	for _, d := range dsts {
		k.span(d, m, x, off)
		off += len(d)
	}
}

// PackedGemvRows is PackedGemv with the paper's Dynamic Row Skip mask:
// the destinations must all have the united matrix's segment length
// (m.Rows / len(dsts)), and row i of every segment is skipped — set to
// fill instead of computed — where skip[i] is true. This is the united
// Sgemv(U_{f,i,c}, h, R) kernel with trivial rows disabled: one skip
// decision covers the row in all gates, exactly as Algorithm 3 shares
// o_t's triviality across U_f, U_i, U_c. A nil skip computes every row.
// Each segment compacts the mask into its kept rows chunk by chunk
// (spanSkip), so the call allocates nothing.
func (k Kernels) PackedGemvRows(dsts []Vector, m *Matrix, x Vector, skip []bool, fill float32) {
	packedRows("PackedGemvRows", dsts, m, x)
	if len(dsts) == 0 {
		return
	}
	seg := len(dsts[0])
	for _, d := range dsts {
		if len(d) != seg {
			Panicf("tensor: PackedGemvRows segments differ: %d vs %d", len(d), seg)
		}
	}
	if skip != nil && len(skip) != seg {
		Panicf("tensor: PackedGemvRows skip length %d, segment %d", len(skip), seg)
	}
	masked := slices.Contains(skip, true)
	for g, d := range dsts {
		if masked {
			k.spanSkip(d, m.Data[g*seg*m.Cols:(g+1)*seg*m.Cols], x, skip, fill)
		} else {
			k.span(d, m, x, g*seg)
		}
	}
}

// PackedGemmRows computes dst row b = m · xs[b] for every input vector,
// with a per-input Dynamic Row Skip mask — the recurrent kernel of the
// forward path, whose inputs are one step's group of cells (a cell, a
// tissue, a batch of either). dst is a len(xs) × m.Rows row-major
// matrix; masks is nil (compute everything), or holds one RowMask per
// input, each the zero mask (compute every row for that input) or one
// whose Seg tiles m.Rows: united row r of input b is skipped — set to
// fill — unless r % Seg is in its Kept list.
//
// A masked member walks its kept rows of the shard's row range once,
// off its list (spanKept): one four-row span body call per segment, with
// no per-row test and at most one tail of 1–3 rows, so the skipped rows
// cost neither a dot nor a branch — the software CRM. Every list must be
// strictly ascending in [0, Seg); the call checks each one whole before
// any row is dotted, since the assembly bodies gather rows by index
// with no bounds checks of their own. The members without a mask (and
// those whose mask keeps every row) go tile-outer: the united weight
// rows are walked in L1-sized tiles (gemmTileRows), and each tile
// streams from memory once and is dotted against every such member
// before the next tile is touched, four members at a time through
// four-row × four-input block span calls (span4) and the 1–3 left over
// through span. That is the Appleyard-style GEMV→GEMM conversion that amortizes
// weight traffic over the inputs, which is why the fork-join shards the
// weight rows (tall: 4h/3h/2h) rather than the inputs (wide but short).
// A tile pays only where more than one span call dots it, so a masked
// member, a lone unmasked one, and exactly four unmasked ones (one
// block) walk the range untiled, in one call. Every output element
// is the same dot chain as the serial per-member call, so the result is
// bitwise identical to len(xs) independent Gemv/PackedGemvRows calls at
// any GOMAXPROCS.
func (k Kernels) PackedGemmRows(dst *Matrix, m *Matrix, xs []Vector, masks []RowMask, fill float32) {
	if dst.Rows != len(xs) || dst.Cols != m.Rows {
		Panicf("tensor: PackedGemmRows shape mismatch: dst %dx%d, m %dx%d, %d inputs",
			dst.Rows, dst.Cols, m.Rows, m.Cols, len(xs))
	}
	for _, x := range xs {
		if len(x) != m.Cols {
			Panicf("tensor: PackedGemmRows input length %d, m cols %d", len(x), m.Cols)
		}
	}
	if masks != nil && len(masks) != len(xs) {
		Panicf("tensor: PackedGemmRows %d masks for %d inputs", len(masks), len(xs))
	}
	for _, mk := range masks {
		if mk.Seg < 0 || mk.Seg > 0 && m.Rows%mk.Seg != 0 {
			Panicf("tensor: PackedGemmRows mask segment %d does not tile %d united rows", mk.Seg, m.Rows)
		}
		if j := mk.badKept(); j >= 0 {
			Panicf("tensor: PackedGemmRows mask keeps row %d at %d, not strictly ascending in [0, %d)",
				mk.Kept[j], j, mk.Seg)
		}
	}
	forkJoin(m.Rows, m.SizeBytes(), gemmRows{k, dst, m, xs, masks, fill})
}

// gemmTileBytes sizes PackedGemmRows' weight tile: small enough to stay
// in a 32 KiB L1 next to the batch's inputs while every member is
// dotted against it (16 KiB is 20 rows at h = 192).
const gemmTileBytes = 16 << 10

// gemmTileRows is the tile height for rows of cols floats: as many rows
// as fit gemmTileBytes, rounded down to whole four-row groups, at
// least one group.
func gemmTileRows(cols int) int {
	return max(4, gemmTileBytes/(4*max(cols, 1))&^3)
}

// gemmRows is PackedGemmRows' row-range body (see forkJoin).
type gemmRows struct {
	k      Kernels
	dst, m *Matrix
	xs     []Vector
	masks  []RowMask
	fill   float32
}

// masked reports whether member b skips rows.
func (j gemmRows) masked(b int) bool { return j.masks != nil && j.masks[b].skips() }

func (j gemmRows) run(lo, hi int) {
	dense := 0
	for b, x := range j.xs {
		if j.masked(b) {
			j.k.spanKept(j.dst.Row(b)[lo:hi], j.m, x, lo, j.masks[b], j.fill)
		} else {
			dense++
		}
	}
	if dense == 0 {
		return
	}
	// A tile pays only when several span calls (a block per four
	// members, a span per member left over) reuse it from L1.
	tile := hi - lo
	if dense/4+dense%4 > 1 {
		tile = gemmTileRows(j.m.Cols)
	}
	for t0 := lo; t0 < hi; t0 += tile {
		t1 := min(t0+tile, hi)
		var open [4]int // unmasked members waiting for a block
		g := 0
		for b := range j.xs {
			if j.masked(b) {
				continue
			}
			if open[g] = b; g < 3 {
				g++
				continue
			}
			var dsts, xs [4][]float32
			for i, o := range open {
				dsts[i], xs[i] = j.dst.Row(o)[t0:t1], j.xs[o]
			}
			j.k.span4(dsts, j.m, xs, t0)
			g = 0
		}
		for _, b := range open[:g] {
			j.k.span(j.dst.Row(b)[t0:t1], j.m, j.xs[b], t0)
		}
	}
}

// PackedGemm computes dst row t = m · xs[t] for every input vector —
// the whole-layer united W·x stage (step 2 of Algorithm 1, where all
// cell inputs are ready up-front): dst is a len(xs) × m.Rows row-major
// matrix whose row t is the united gate pre-activation of cell t. The
// inputs go four at a time through four-row × four-input block span
// calls (span4), so W streams once per four cells rather than once per cell;
// the 1–3 left over go through span. A W too large for L2 fans the
// independent t rows out over the parallel worker shards (see
// parallel.go). Every output element is one dot chain, so the result is
// bitwise identical to len(xs) serial Gemv calls at any GOMAXPROCS.
func (k Kernels) PackedGemm(dst *Matrix, m *Matrix, xs []Vector) {
	if dst.Rows != len(xs) || dst.Cols != m.Rows {
		Panicf("tensor: PackedGemm shape mismatch: dst %dx%d, m %dx%d, %d inputs",
			dst.Rows, dst.Cols, m.Rows, m.Cols, len(xs))
	}
	k.runGemm(gemm{k: k, dst: dst, m: m, xs: xs})
}

// PackedGemmInto is PackedGemm into destination vectors: dsts[t] = m ·
// xs[t] for every t, each destination m.Rows long and anywhere in
// memory — a block of one matrix row, rows of several. The forward core
// uses it to compute one stage's rows of W·x into their blocks of the
// cells' wx rows, four cells per block call whichever members they
// belong to.
func (k Kernels) PackedGemmInto(dsts []Vector, m *Matrix, xs []Vector) {
	if len(dsts) != len(xs) {
		Panicf("tensor: PackedGemmInto %d destinations for %d inputs", len(dsts), len(xs))
	}
	for _, d := range dsts {
		if len(d) != m.Rows {
			Panicf("tensor: PackedGemmInto destination %d, m %dx%d", len(d), m.Rows, m.Cols)
		}
	}
	k.runGemm(gemm{k: k, dsts: dsts, m: m, xs: xs})
}

// runGemm checks the inputs of a PackedGemm body and runs it, its
// destinations sharded where the weights overflow L2.
func (k Kernels) runGemm(j gemm) {
	for _, x := range j.xs {
		if len(x) != j.m.Cols {
			Panicf("tensor: PackedGemm input length %d, m cols %d", len(x), j.m.Cols)
		}
	}
	forkJoin(len(j.xs), j.m.SizeBytes(), j)
}

// gemm is the row-range body of PackedGemm and PackedGemmInto:
// destinations four per span4 and the rest one span each. Destination t
// is dsts[t], or row t of dst where dsts is nil.
type gemm struct {
	k    Kernels
	dst  *Matrix
	dsts []Vector
	m    *Matrix
	xs   []Vector
}

func (j gemm) row(t int) []float32 {
	if j.dsts != nil {
		return j.dsts[t]
	}
	return j.dst.Row(t)
}

func (j gemm) run(lo, hi int) {
	t := lo
	for ; t+4 <= hi; t += 4 {
		x := j.xs
		j.k.span4([4][]float32{j.row(t), j.row(t + 1), j.row(t + 2), j.row(t + 3)}, j.m,
			[4][]float32{x[t], x[t+1], x[t+2], x[t+3]}, 0)
	}
	for ; t < hi; t++ {
		j.k.span(j.row(t), j.m, j.xs[t], 0)
	}
}

// PackedGemmKept computes dsts[b][i] = row i of m · xs[b] for every
// input b and every row i in kept, and writes no other element: the
// rows no input needs cost no dot. kept must be strictly ascending in
// [0, m.Rows), and every destination m.Rows long. It is the batch's
// Dynamic Row Skip over a weight stream shared by every input — the
// forward core's second-stage W·x of a lockstep group, over the union
// of its members' kept rows. The inputs go four at a time through the
// gathered block span body, which loads each listed row once per four
// inputs — Appleyard et al.'s weight reuse across inputs under one
// shared mask; a group of two or three left over takes one more call
// with the absent inputs marked, a lone input one call of the one-input
// span body over the same list, and the last len(kept)%4 rows go
// through the row body, once per input. A W too large for L2 shards
// the kept list over the worker pool. Every output element is one dot
// chain, dotted once, so the result is bitwise that of PackedGemm at
// the listed rows, at any GOMAXPROCS.
func (k Kernels) PackedGemmKept(dsts []Vector, m *Matrix, xs []Vector, kept []int) {
	if len(dsts) != len(xs) {
		Panicf("tensor: PackedGemmKept %d destinations for %d inputs", len(dsts), len(xs))
	}
	for b, x := range xs {
		if len(x) != m.Cols || len(dsts[b]) != m.Rows {
			Panicf("tensor: PackedGemmKept member %d: destination %d, input %d, m %dx%d",
				b, len(dsts[b]), len(x), m.Rows, m.Cols)
		}
	}
	if j := (RowMask{Seg: m.Rows, Kept: kept}).badKept(); j >= 0 {
		Panicf("tensor: PackedGemmKept keeps row %d at %d, not strictly ascending in [0, %d)",
			kept[j], j, m.Rows)
	}
	if len(kept) == 0 {
		return // and a nil list would name the whole range
	}
	forkJoin(len(kept), m.SizeBytes(), gemmKept{k, dsts, m, xs, kept})
}

// gemmKept is PackedGemmKept's body over the kept-list range [lo, hi).
type gemmKept struct {
	k    Kernels
	dsts []Vector
	m    *Matrix
	xs   []Vector
	kept []int
}

func (j gemmKept) run(lo, hi int) {
	kept, n, w := j.kept[lo:hi], j.m.Cols, j.m.Data
	for b0 := 0; b0 < len(j.xs); b0 += 4 {
		var dsts, xs [4][]float32
		for b := b0; b < min(b0+4, len(j.xs)); b++ {
			dsts[b-b0], xs[b-b0] = j.dsts[b], j.xs[b]
		}
		if dsts[1] == nil {
			j.k.quad(j.k, dsts[0], w, xs[0], kept, 0)
		} else {
			j.k.block(j.k, dsts, w, xs, kept, 0)
		}
		for _, i := range kept[len(kept)&^3:] {
			for b, d := range dsts {
				if d != nil {
					d[i] = j.k.dot(w[i*n:i*n+n], xs[b])
				}
			}
		}
	}
}

// PackedGemv is Kernels.PackedGemv on the canonical chain — like the
// package-level kernels below, an entry point for chain-neutral
// callers.
func PackedGemv(dsts []Vector, m *Matrix, x Vector) { KernelsFor(ChainSSE2).PackedGemv(dsts, m, x) }

// PackedGemvRows is Kernels.PackedGemvRows on the canonical chain.
func PackedGemvRows(dsts []Vector, m *Matrix, x Vector, skip []bool, fill float32) {
	KernelsFor(ChainSSE2).PackedGemvRows(dsts, m, x, skip, fill)
}

// PackedGemm is Kernels.PackedGemm on the canonical chain.
func PackedGemm(dst *Matrix, m *Matrix, xs []Vector) { KernelsFor(ChainSSE2).PackedGemm(dst, m, xs) }

// PackedGemmRows is Kernels.PackedGemmRows on the canonical chain.
func PackedGemmRows(dst *Matrix, m *Matrix, xs []Vector, masks []RowMask, fill float32) {
	KernelsFor(ChainSSE2).PackedGemmRows(dst, m, xs, masks, fill)
}

// WidePackedGemv is Kernels.PackedGemv on the wide chain; it and
// WidePackedGemmRows keep these names for the benchmark's micro-probes.
func WidePackedGemv(dsts []Vector, m *Matrix, x Vector) { KernelsFor(ChainAVX2).PackedGemv(dsts, m, x) }

// WidePackedGemmRows is Kernels.PackedGemmRows on the wide chain.
func WidePackedGemmRows(dst *Matrix, m *Matrix, xs []Vector, masks []RowMask, fill float32) {
	KernelsFor(ChainAVX2).PackedGemmRows(dst, m, xs, masks, fill)
}
