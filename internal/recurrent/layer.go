package recurrent

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/intracell"
	"mobilstm/internal/tensor"
)

// runLayer executes one layer over the arena's members — xs is their
// inputs end to end — and returns their hidden outputs in the same flat
// order (views into the arena's ping-pong slab, valid until the layer
// after next). Each member's cells are divided into sub-layers and
// aligned into tissues: under Inter at its weak links (divide),
// otherwise as one sub-layer whose tissues are its single cells. Step k
// then advances tissue k of every member that has one, as one group.
// lt, for a one-member pass, records the structure; each, when non-nil,
// sees every cell's state right after its update.
func runLayer(li int, l Cell, xs []tensor.Vector, opt RunOptions, lt *LayerTrace, sc *forwardScratch, ks tensor.Kernels, each func(t int, st tensor.Vector)) []tensor.Vector {
	pw := packed(l)
	sc.project(ks, pw, xs)
	steps := sc.begin(li, l, pw, opt, lt)
	hs := sc.nextHS()
	for k := 0; k < steps; k++ {
		sc.step(k, l, pw, opt, lt, ks, hs, each)
	}
	return hs
}

// project is step 2 of Algorithm 1, the per-layer Sgemm(W, x) as united
// packed GEMMs — all layer inputs are ready up-front on mobile GPUs
// (§II-C), so every cell of every member is one weight stream. Row
// off+t of wx holds member cell t's united pre-activation. The cells of
// the deferred steps take only their first-stage rows W₁·x here: their
// group computes the second-stage rows at step time, over the rows its
// members keep (projectKept). Then every cell's W₁·x is one GEMM and
// the other cells' W₂·x another, four cells per block call whichever
// members they belong to.
func (sc *forwardScratch) project(ks tensor.Kernels, pw *packedWeights, xs []tensor.Vector) {
	sc.xs = xs
	if sc.deferred == 0 {
		ks.PackedGemm(&sc.wx, pw.w, xs)
		return
	}
	c1, c2 := sc.sh.wxCols()
	dsts, in := sc.cellDst[:len(xs)], sc.cellIn[:0]
	for t := range xs {
		dsts[t] = sc.wx.Row(t)[c1 : c1+pw.w1.Rows]
	}
	ks.PackedGemmInto(dsts, pw.w1, xs)
	dsts = dsts[:0]
	for _, mb := range sc.members {
		for t := mb.off + min(mb.n, sc.deferred); t < mb.off+mb.n; t++ {
			dsts, in = append(dsts, sc.wx.Row(t)[c2:c2+pw.w2.Rows]), append(in, xs[t])
		}
	}
	ks.PackedGemmInto(dsts, pw.w2, in)
}

// projectKept computes the second-stage W·x of a deferred step's group
// at the rows its members keep, four members at a time — the members
// one gathered block call serves: the rows some of the four keeps (their
// DRS gates compacted together, as a tissue's are), tiled over W₂'s
// blocks, in one PackedGemmKept whose block body loads each listed W₂
// row once for the four. A row none of the four keeps is never dotted
// for them, and Update reads each member's wx only at its own kept rows,
// all of which its union holds; the other rows of the block keep
// whatever they held.
func (sc *forwardScratch) projectKept(ks tensor.Kernels, pw *packedWeights, slots []slot, alpha float64) {
	h, rows := sc.sh.Hidden, pw.w2.Rows
	_, c2 := sc.sh.wxCols()
	dsts, in := sc.wx2[:len(slots)], sc.in[:len(slots)]
	for s, sl := range slots {
		dsts[s], in[s] = sc.wx.Row(sl.row)[c2:c2+rows], sc.xs[sl.row]
	}
	for lo := 0; lo < len(slots); lo += 4 {
		hi := min(lo+4, len(slots))
		union := intracell.TissueKeptRowsInto(sc.union, sc.drs[lo:hi], alpha)
		u := len(union)
		tiled := sc.wx2Rows[:rows/h*u]
		for g := range rows / h {
			for j, r := range union {
				tiled[g*u+j] = g*h + r
			}
		}
		ks.PackedGemmKept(dsts[lo:hi], pw.w2, in[lo:hi], tiled)
	}
}

// begin starts layer li on every member — zero state, and under Inter
// the division, which reads the whole layer's wx — and returns the
// number of steps the layer takes.
func (sc *forwardScratch) begin(li int, l Cell, pw *packedWeights, opt RunOptions, lt *LayerTrace) (steps int) {
	for i := range sc.members {
		mb := &sc.members[i]
		mb.states[0].Fill(0)
		if opt.Inter {
			sc.divide(mb, l, pw, opt, opt.Predictors[li], lt)
		} else if lt != nil {
			lt.SublayerSizes = []int{mb.n}
		}
		if lt != nil {
			lt.TissueSizes = intercell.TissueSizes(mb.tissues)
		}
		steps = max(steps, len(mb.tissues))
	}
	return steps
}

// divide splits a member at the links whose relevance is below
// AlphaInter (Fig. 10 step 5), aligns the sub-layers into tissues of at
// most MTS cells (steps 7-8) and starts every sub-layer after the first
// from the predicted context link (step 6).
func (sc *forwardScratch) divide(mb *member, l Cell, pw *packedWeights, opt RunOptions, p intercell.Predictor, lt *LayerTrace) {
	rel := make([]float64, mb.n-1)
	for t := range rel {
		rel[t] = pw.relevance(sc.wx.Row(mb.off + t + 1))
	}
	breaks := intercell.Breakpoints(rel, opt.AlphaInter)
	subs := intercell.Sublayers(mb.n, breaks)
	mb.tissues = intercell.AlignTissues(subs, opt.MTS)
	for si, s := range subs {
		for _, c := range s {
			mb.subOf[c] = si
		}
	}
	for _, st := range mb.states[1:len(subs)] {
		l.InitPredicted(st, p)
	}
	if lt != nil {
		lt.Relevance, lt.Breakpoints, lt.SublayerSizes = rel, breaks, intercell.TissueSizes(subs)
	}
}

// step advances tissue k of every member that has one as one group. Each
// recurrent stage is one PackedGemmRows over the group's slots, so U₁
// and U₂ stream once per step for all of its cells: the tissue's weight
// reuse (§IV-C) and the batch's (the GEMV→GEMM conversion of Appleyard
// et al.) are the same call. AlignTissues puts a sub-layer's cells into
// strictly later tissues, so no group holds two cells of one sub-layer
// and every slot's state is its own.
func (sc *forwardScratch) step(k int, l Cell, pw *packedWeights, opt RunOptions, lt *LayerTrace, ks tensor.Kernels, hs []tensor.Vector, each func(t int, st tensor.Vector)) {
	h := sc.sh.Hidden
	n, ends := 0, sc.ends[:0]
	for i := range sc.members {
		mb := &sc.members[i]
		if k >= len(mb.tissues) {
			continue
		}
		for _, c := range mb.tissues[k] {
			st := mb.states[mb.subOf[c]]
			sc.slots[n], sc.in[n] = slot{mb.off + c, c, st}, st[:h]
			n++
		}
		ends = append(ends, n)
	}
	slots, in, masks := sc.slots[:n], sc.in[:n], sc.masks[:n]

	// First stage: the gates that need only h_{t-1}, which decide what
	// the second stage may skip (Algorithm 3 lines 4-6).
	a1 := sc.product(n, sc.sh.First*h)
	ks.PackedGemmRows(a1, pw.u1, in, nil, 0)
	for s, sl := range slots {
		l.FirstGates(sc.gates[s], sc.wx.Row(sl.row), a1.Row(s))
	}

	// One DRS mask per tissue, compacted once into the rows that some
	// cell of the tissue keeps — the CRM's list — and shared by all of
	// them. Without DRS the list is every row, which the kernel runs as
	// no mask.
	lo := 0
	for j, hi := range ends {
		kept := sc.every
		if opt.Intra {
			kept = intracell.TissueKeptRowsInto(sc.keptBuf[j*h:(j+1)*h], sc.drs[lo:hi], opt.AlphaIntra)
		}
		if lt != nil {
			lt.SkipCounts = append(lt.SkipCounts, h-len(kept))
		}
		for s := lo; s < hi; s++ {
			masks[s] = tensor.RowMask{Seg: h, Kept: kept}
		}
		lo = hi
	}

	if k < sc.deferred {
		sc.projectKept(ks, pw, slots, opt.AlphaIntra)
	}

	// Second stage: one united pass over U₂ that computes the kept rows
	// only, then every cell's element-wise state update over them.
	for s, sl := range slots {
		in[s] = l.Operand(sc.operands[s], sc.gates[s], sl.st[:h])
	}
	a2 := sc.product(n, (sc.sh.Gates-sc.sh.First)*h)
	ks.PackedGemmRows(a2, pw.u2, in, masks, 0)
	for s, sl := range slots {
		l.Update(sl.st, sc.wx.Row(sl.row), a2.Row(s), sc.gates[s], masks[s].Kept)
		copy(hs[sl.row], sl.st[:h])
		if each != nil {
			each(sl.cell, sl.st)
		}
	}
}
