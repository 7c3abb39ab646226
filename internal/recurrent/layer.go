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

	// Step 2 of Algorithm 1: the per-layer Sgemm(W, x) as one united
	// packed GEMM — all layer inputs are ready up-front on mobile GPUs
	// (§II-C), so every cell of every member is one weight stream. Row
	// off+t of wx holds member cell t's united pre-activation.
	ks.PackedGemm(&sc.wx, pw.w, xs)

	steps := sc.begin(li, l, pw, opt, lt)
	hs := sc.nextHS()
	for k := 0; k < steps; k++ {
		sc.step(k, l, pw, opt, lt, ks, hs, each)
	}
	return hs
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
