//go:build amd64

package tensor

import "slices"

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

// The span bodies below carry the canonical chain four rows at a time
// over a whole span in one assembly call: every output is bitwise
// dotRowGeneric of its row. The assembly has no bounds checks, so each
// wrapper proves its span in bounds once per call — every destination
// it writes and every row it reads — and handles the empty row in Go,
// where a zero-length slice has no address. KernelsFor binds the
// AVX-512 bodies, one-input and block, only where the probe reports
// AVX-512F with OS-saved opmask and ZMM state (hasBlockBody), the AVX
// one-input bodies where it reports AVX with OS-saved YMM state
// (hasQuadBody) but not that, and none in a process forced generic.

// spanOf proves the rows of one span body call in bounds and returns
// what the assembly walks: the list's first entry, or nil for the range;
// the offset its row indices take (0 for the range); how many whole
// groups of four rows it dots; and the last of those rows. The range's
// groups are rows 0..4·groups-1 of rows. A list is strictly ascending
// (RowMask's contract, which PackedGemmRows and PackedGemmKept
// validate), so its first and last rows bound every row it names.
func spanOf(rows int, kept []int, off int) (idx *int, from, groups, last int) {
	if kept == nil {
		groups = rows / 4
		return nil, 0, groups, 4*groups - 1
	}
	if groups = len(kept) / 4; groups == 0 {
		return nil, 0, 0, -1
	}
	first, last := off+kept[0], off+kept[4*groups-1]
	if first < 0 || last >= rows || first > last {
		Panicf("tensor: kept rows [%d, %d] outside a %d-row span", first, last, rows)
	}
	return &kept[0], off, groups, last
}

// quadSpanAVX and quadSpanAVX512 are quadRows (kernel.go) through the
// one-input body of their width: the AVX four-row body in
// dot_quad_amd64.s and the AVX-512 one in dot_block_amd64.s.
func quadSpanAVX(_ Kernels, dst, w, x []float32, kept []int, off int) {
	dot4SpanAVX(spanArgs(dst, w, x, kept, off))
}

func quadSpanAVX512(_ Kernels, dst, w, x []float32, kept []int, off int) {
	dot4SpanAVX512(spanArgs(dst, w, x, kept, off))
}

// gatherAVX and gatherAVX512 are gatherRows through the one-input body
// of their width: one group of four rows named by index.
func gatherAVX(_ Kernels, dst, w, x []float32, at [4]int) {
	dot4SpanAVX(gatherArgs(dst, w, x, &at))
}

func gatherAVX512(_ Kernels, dst, w, x []float32, at [4]int) {
	dot4SpanAVX512(gatherArgs(dst, w, x, &at))
}

// spanArgs proves one one-input body call over a range or a kept list
// in bounds (spanOf) and returns its arguments. A call with no whole
// group passes no pointer and groups 0, and rows of no floats pass no
// w or x: the body reads neither and stores +0, dotRowGeneric's empty
// sum.
func spanArgs(dst, w, x []float32, kept []int, off int) (*float32, *float32, *float32, *int, int, int, int) {
	idx, from, groups, last := spanOf(len(dst), kept, off)
	n := len(x)
	switch {
	case groups == 0:
		return nil, nil, nil, nil, 0, 0, 0
	case n == 0:
		return &dst[0], nil, nil, idx, from, 0, groups
	}
	w = w[:(last+1)*n]
	return &dst[0], &w[0], &x[0], idx, from, n, groups
}

// gatherArgs is spanArgs for one group named by index: each index is
// checked, since a gathered group need not ascend.
func gatherArgs(dst, w, x []float32, at *[4]int) (*float32, *float32, *float32, *int, int, int, int) {
	for _, i := range at {
		if uint(i) >= uint(len(dst)) {
			Panicf("tensor: gathered row %d outside a %d-row span", i, len(dst))
		}
	}
	n := len(x)
	if n == 0 {
		return &dst[0], nil, nil, &at[0], 0, 0, 1
	}
	w = w[:len(dst)*n]
	return &dst[0], &w[0], &x[0], &at[0], 0, n, 1
}

// dot4SpanAVX is implemented in dot_quad_amd64.s and dot4SpanAVX512 in
// dot_block_amd64.s: groups groups of four rows — rows 4g..4g+3 when
// idx is nil, rows off+idx[4g..4g+3] otherwise — each dotted against x
// and stored to dst at its row index; groups 0 does nothing, and n 0
// reads no row and no x. Each result must match dotRowGeneric bitwise;
// see the chain definition in kernel.go.
//
//go:noescape
func dot4SpanAVX(dst, w, x *float32, idx *int, off, n, groups int)

//go:noescape
func dot4SpanAVX512(dst, w, x *float32, idx *int, off, n, groups int)

// blockSpanAVX512 is blockRows (kernel.go) through the AVX-512 block
// body in dot_block_amd64.s. An absent input takes the first present
// input's place: its lanes dot that input again and store the same bits
// over the same outputs, so a group of one to three inputs is one call
// too. Every present destination must hold the call's last row, and a
// zero-length input goes through blockRows.
func blockSpanAVX512(k Kernels, dsts [4][]float32, w []float32, xs [4][]float32, kept []int, off int) {
	first := slices.IndexFunc(dsts[:], func(d []float32) bool { return d != nil })
	if first < 0 {
		return
	}
	idx, from, groups, last := spanOf(len(dsts[first]), kept, off)
	n := len(xs[first])
	if groups == 0 {
		return
	}
	if n == 0 {
		blockRows(k, dsts, w, xs, kept, off)
		return
	}
	for b, d := range dsts {
		if d == nil {
			dsts[b], xs[b] = dsts[first], xs[first]
			continue
		}
		if last >= len(d) {
			Panicf("tensor: block row %d outside a %d-row destination", last, len(d))
		}
		xs[b] = xs[b][:n]
	}
	w = w[:(last+1)*n]
	dot4x4AVX512(&dsts[0][0], &dsts[1][0], &dsts[2][0], &dsts[3][0], &w[0],
		&xs[0][0], &xs[1][0], &xs[2][0], &xs[3][0], idx, from, n, groups)
}

// dot4x4AVX512 is implemented in dot_block_amd64.s: groups groups of
// four rows — rows 4g..4g+3 when idx is nil (off is then 0), rows
// off+idx[4g..4g+3] otherwise — each dotted against the four inputs,
// db[i] the dot of row i and xb. Each result must match dotRowGeneric
// bitwise; see the chain definition in kernel.go.
//
//go:noescape
func dot4x4AVX512(d0, d1, d2, d3, w, x0, x1, x2, x3 *float32, idx *int, off, n, groups int)
