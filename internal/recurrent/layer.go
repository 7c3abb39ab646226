package recurrent

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/intracell"
	"mobilstm/internal/tensor"
)

// runLayer executes one layer over one sequence and returns its hidden
// outputs (views into the arena's ping-pong slab, valid until the layer
// after next). each, when non-nil, sees every cell's state right after
// its update; only the exact sequential flow supports it.
func runLayer(li int, l Cell, xs []tensor.Vector, opt RunOptions, lt *LayerTrace, sc *layerScratch, ks tensor.Kernels, each func(t int, st tensor.Vector)) []tensor.Vector {
	nCells := len(xs)
	pw := packed(l)
	sc.reset(l.Shape(), nCells)
	h := sc.sh.Hidden

	// Step 2 of Algorithm 1: the per-layer Sgemm(W, x) as one united
	// packed GEMM — all layer inputs are ready up-front on mobile GPUs
	// (§II-C), so the whole layer's input projections are a single
	// weight stream. Row t of wx holds cell t's united pre-activation.
	ks.PackedGemm(sc.wx, pw.w, xs)

	if !opt.Inter {
		// Sequential flow: one sub-layer, every cell its own tissue. The
		// recurrent stream is split per cell into the first-stage block
		// (the DRS gate must exist before U₂ is touched, Algorithm 3
		// lines 4-6) and the skippable second-stage block.
		if lt != nil {
			lt.SublayerSizes = []int{nCells}
			ts := make([]int, nCells)
			for i := range ts {
				ts[i] = 1
			}
			lt.TissueSizes = ts
		}
		st := sc.states[0]
		st.Fill(0)
		hs := sc.nextHS()
		for t := 0; t < nCells; t++ {
			wx := sc.wx.Row(t)
			ks.Gemv(sc.a1, pw.u1, st[:h])
			l.FirstGates(sc.gates[0], wx, sc.a1)
			var skip []bool
			var skipCount int
			if opt.Intra {
				skip, skipCount = intracell.TissueTrivialRowsInto(sc.skip, sc.drs[:1], opt.AlphaIntra)
			}
			if lt != nil && opt.Intra {
				lt.SkipCounts = append(lt.SkipCounts, skipCount)
			}
			secondStage(l, pw, st, wx, sc.gates[0], skip, sc, ks)
			copy(hs[t], st[:h])
			if each != nil {
				each(t, st)
			}
		}
		return hs
	}

	// Layer division (Fig. 10 step 5): relevance per link, breakpoints,
	// sub-layers.
	var subs [][]int
	if nCells > 1 {
		relevance := l.LinkRelevance()
		rel := make([]float64, nCells-1)
		for t := 1; t < nCells; t++ {
			rel[t-1] = relevance(sc.wx.Row(t))
		}
		breaks := intercell.Breakpoints(rel, opt.AlphaInter)
		subs = intercell.Sublayers(nCells, breaks)
		if lt != nil {
			lt.Relevance = rel
			lt.Breakpoints = breaks
		}
	} else {
		subs = intercell.Sublayers(nCells, nil)
	}

	// Tissue re-organization (Fig. 10 steps 7-8).
	tissues := intercell.AlignTissues(subs, opt.MTS)
	if lt != nil {
		lt.SublayerSizes = intercell.TissueSizes(subs)
		lt.TissueSizes = intercell.TissueSizes(tissues)
	}

	// Sub-layer lookup and initial states: sub-layer 0 starts from the
	// layer's zero initial state; every later sub-layer starts from the
	// predicted context link (Fig. 10 step 6).
	subOf := sc.subOf[:nCells]
	for si, s := range subs {
		for _, c := range s {
			subOf[c] = si
		}
	}
	states := sc.states[:len(subs)]
	states[0].Fill(0)
	for _, st := range states[1:] {
		l.InitPredicted(st, opt.Predictors[li])
	}

	hs := sc.nextHS()
	for _, tissue := range tissues {
		// First the first-stage gates of every cell in the tissue; in the
		// combined flow the tissue's shared skip set is the intersection
		// of its cells' trivial rows.
		for ci, cell := range tissue {
			ks.Gemv(sc.a1, pw.u1, states[subOf[cell]][:h])
			l.FirstGates(sc.gates[ci], sc.wx.Row(cell), sc.a1)
		}
		var skip []bool
		var skipCount int
		if opt.Intra {
			skip, skipCount = intracell.TissueTrivialRowsInto(sc.skip, sc.drs[:len(tissue)], opt.AlphaIntra)
		}
		if lt != nil {
			lt.SkipCounts = append(lt.SkipCounts, skipCount)
		}
		// Then the second stage (with trivial rows disabled) and the
		// element-wise state update per cell.
		for ci, cell := range tissue {
			st := states[subOf[cell]]
			secondStage(l, pw, st, sc.wx.Row(cell), sc.gates[ci], skip, sc, ks)
			copy(hs[cell], st[:h])
		}
	}
	return hs
}

// secondStage completes one cell given its first-stage gates: one
// united pass over U₂ — the operand streams once across all of its gate
// blocks, and the skip mask disables a row in all of them at once —
// then the cell's own state update.
func secondStage(l Cell, pw *packedWeights, st, wx, g tensor.Vector, skip []bool, sc *layerScratch, ks tensor.Kernels) {
	x := l.Operand(sc.operand, g, st[:sc.sh.Hidden])
	ks.PackedGemvRows(sc.a2s, pw.u2, x, skip, 0)
	l.Update(st, wx, sc.a2, g, skip)
}

// runLayerBatch is the batched counterpart of runLayer's sequential
// flow: per timestep, the active members' recurrent products run as two
// batched united GEMMs (U₁, then U₂ under the per-member DRS masks), and
// the cell methods walk each member exactly as the serial flow does.
func runLayerBatch(l Cell, xs []tensor.Vector, opt RunOptions, sc *batchScratch, ks tensor.Kernels) []tensor.Vector {
	pw := packed(l)
	sc.reset(l.Shape(), sc.lens)
	h := sc.sh.Hidden

	// Step 2 of Algorithm 1 across the whole batch: every cell of every
	// member is ready up-front, so one united packed GEMM streams W once
	// for all of them.
	ks.PackedGemm(sc.wx, pw.w, xs)

	maxLen := 0
	for i, ln := range sc.lens {
		sc.states[i].Fill(0)
		maxLen = max(maxLen, ln)
	}
	hs := sc.nextHS()
	for t := 0; t < maxLen; t++ {
		// The lockstep active set: members whose sequence still has a
		// cell at t. Short members simply drop out — no padding compute.
		act := sc.active[:0]
		for i, ln := range sc.lens {
			if t < ln {
				act = append(act, i)
			}
		}
		g := sc.gather[:len(act)]
		for k, i := range act {
			g[k] = sc.states[i][:h]
		}

		// First-stage gates, batched: U₁ streams once for the whole
		// active set.
		a1 := sc.a1View(len(act))
		ks.PackedGemmRows(a1, pw.u1, g, nil, 0)
		for k, i := range act {
			l.FirstGates(sc.gates[i], sc.wx.Row(sc.offs[i]+t), a1.Row(k))
		}

		// Per-member DRS masks (each member is its own tissue of one,
		// exactly as in the serial sequential flow) and second-stage
		// operands, which take over the gather slots.
		skips := sc.skips[:len(act)]
		for k, i := range act {
			skips[k] = nil
			if opt.Intra {
				skips[k], _ = intracell.TissueTrivialRowsInto(sc.masks[i], sc.drs[i:i+1], opt.AlphaIntra)
			}
			g[k] = l.Operand(sc.operands[i], sc.gates[i], g[k])
		}

		// U₂ for the active set under the masks: each weight row streams
		// once and is skipped per member.
		a2 := sc.a2View(len(act))
		ks.PackedGemmRows(a2, pw.u2, g, skips, 0)

		for k, i := range act {
			st := sc.states[i]
			l.Update(st, sc.wx.Row(sc.offs[i]+t), a2.Row(k), sc.gates[i], skips[k])
			copy(hs[sc.offs[i]+t], st[:h])
		}
	}
	return hs
}
