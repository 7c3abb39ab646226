package tensor

// Wide variants of the GEMV family: the same shapes, validation, and
// row-streaming structure as their canonical counterparts, dotted
// through the wide FMA chain (kernel_wide.go) instead of the canonical
// one. They form the fast mode behind ChainAVX2 — faster on AVX2/FMA
// silicon, bitwise self-consistent (wide-vs-wide at any GOMAXPROCS and
// any batch B, pinned like the PackedGemm/serial contract) but NOT
// bitwise interchangeable with the canonical kernels. Callers select a
// family wholesale per run (lstm/gru kernelFns); mixing chains within
// one forward pass is a bug the determinism tests would catch.

// WideGemv computes dst = m · x through the wide chain. Shape contract
// identical to Gemv.
func WideGemv(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		Panicf("tensor: WideGemv shape mismatch: dst %d, m %dx%d, x %d",
			len(dst), m.Rows, m.Cols, len(x))
	}
	wideGemvSpan(dst, m, x, 0)
}

// WideGemvRows is GemvRows through the wide chain: rows with
// skip[i] == true are set to fill, everything else is one dotRowWide.
func WideGemvRows(dst Vector, m *Matrix, x Vector, skip []bool, fill float32) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		Panicf("tensor: WideGemvRows shape mismatch: dst %d, m %dx%d, x %d",
			len(dst), m.Rows, m.Cols, len(x))
	}
	if skip != nil && len(skip) != m.Rows {
		Panicf("tensor: WideGemvRows skip length mismatch")
	}
	if skip == nil {
		wideGemvSpan(dst, m, x, 0)
		return
	}
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		if skip[i] {
			dst[i] = fill
			continue
		}
		dst[i] = dotRowWide(m.Data[i*n:i*n+n], x)
	}
}

// WidePackedGemv is PackedGemv through the wide chain: the united
// product m · x scattered into the per-gate destinations, each row one
// dotRowWide.
func WidePackedGemv(dsts []Vector, m *Matrix, x Vector) {
	packedRows("WidePackedGemv", dsts, m, x)
	off := 0
	for _, d := range dsts {
		wideGemvSpan(d, m, x, off)
		off += len(d)
	}
}

// WidePackedGemvRows is PackedGemvRows through the wide chain: the
// united DRS kernel with one segment-length skip mask shared by every
// gate block. A nil skip computes every row.
func WidePackedGemvRows(dsts []Vector, m *Matrix, x Vector, skip []bool, fill float32) {
	packedRows("WidePackedGemvRows", dsts, m, x)
	if len(dsts) == 0 {
		return
	}
	seg := len(dsts[0])
	for _, d := range dsts {
		if len(d) != seg {
			Panicf("tensor: WidePackedGemvRows segments differ: %d vs %d", len(d), seg)
		}
	}
	if skip == nil {
		WidePackedGemv(dsts, m, x)
		return
	}
	if len(skip) != seg {
		Panicf("tensor: WidePackedGemvRows skip length %d, segment %d", len(skip), seg)
	}
	n := m.Cols
	for k, d := range dsts {
		base := k * seg
		for i := 0; i < seg; i++ {
			if skip[i] {
				d[i] = fill
				continue
			}
			r := base + i
			d[i] = dotRowWide(m.Data[r*n:r*n+n], x)
		}
	}
}

// WidePackedGemmRows is PackedGemmRows through the wide chain: the
// row-outer batch-B recurrent kernel (each united weight row streams
// once and is dotted against every input) with per-input DRS masks,
// sharded over the weight rows. Every output element is one dotRowWide
// chain, so the result is bitwise identical to len(xs) independent
// WideGemv/WidePackedGemvRows calls at any GOMAXPROCS.
func WidePackedGemmRows(dst *Matrix, m *Matrix, xs []Vector, skips [][]bool, fill float32) {
	if dst.Rows != len(xs) || dst.Cols != m.Rows {
		Panicf("tensor: WidePackedGemmRows shape mismatch: dst %dx%d, m %dx%d, %d inputs",
			dst.Rows, dst.Cols, m.Rows, m.Cols, len(xs))
	}
	for _, x := range xs {
		if len(x) != m.Cols {
			Panicf("tensor: WidePackedGemmRows input length %d, m cols %d", len(x), m.Cols)
		}
	}
	if skips != nil && len(skips) != len(xs) {
		Panicf("tensor: WidePackedGemmRows %d masks for %d inputs", len(skips), len(xs))
	}
	if skips != nil {
		for _, sk := range skips {
			if sk != nil && (len(sk) == 0 || m.Rows%len(sk) != 0) {
				Panicf("tensor: WidePackedGemmRows mask length %d does not tile %d united rows",
					len(sk), m.Rows)
			}
		}
	}
	n := m.Cols
	forkJoin(m.Rows, m.Rows*n*len(xs), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			wrow := m.Data[r*n : r*n+n]
			out := dst.Data[r:]
			for b, x := range xs {
				if skips != nil {
					if sk := skips[b]; sk != nil && sk[r%len(sk)] {
						out[b*dst.Cols] = fill
						continue
					}
				}
				out[b*dst.Cols] = dotRowWide(wrow, x)
			}
		}
	})
}

// WidePackedGemm is PackedGemm through the wide chain: the whole-layer
// united W·x stage with the independent input rows fanned out over the
// parallel worker shards; each row is one wideGemvSpan, so the result
// is bitwise identical to len(xs) serial WideGemv calls at any
// GOMAXPROCS.
func WidePackedGemm(dst *Matrix, m *Matrix, xs []Vector) {
	if dst.Rows != len(xs) || dst.Cols != m.Rows {
		Panicf("tensor: WidePackedGemm shape mismatch: dst %dx%d, m %dx%d, %d inputs",
			dst.Rows, dst.Cols, m.Rows, m.Cols, len(xs))
	}
	for _, x := range xs {
		if len(x) != m.Cols {
			Panicf("tensor: WidePackedGemm input length %d, m cols %d", len(x), m.Cols)
		}
	}
	forkJoin(len(xs), len(xs)*m.Rows*m.Cols, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			wideGemvSpan(dst.Row(t), m, xs[t], 0)
		}
	})
}
