package gru

import (
	"math"

	"mobilstm/internal/tensor"
)

// analyzer evaluates the GRU adjustment of Algorithm 2: the context link
// into a cell is weak for element j only when (a) the update gate's input
// range sits in the high saturation (z ~ 1, so the direct carry
// (1-z)*h_{t-1} vanishes) and (b) the candidate path is insensitive —
// either its own activation input is saturated or its recurrent reach D_h
// is negligible. The per-element contributions sum to S as in the LSTM
// case, and a single alpha_inter thresholds it.
type analyzer struct {
	dim        int
	dz, dr, dh tensor.Vector
	bz, br, bh tensor.Vector
}

func newAnalyzer(l *Layer) *analyzer {
	return &analyzer{
		dim: l.Hidden,
		dz:  tensor.AbsRowSums(l.Uz),
		dr:  tensor.AbsRowSums(l.Ur),
		dh:  tensor.AbsRowSums(l.Uh),
		bz:  l.Bz, br: l.Br, bh: l.Bh,
	}
}

func clampf(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// relevance returns S for the link into the cell with the given per-gate
// input projections.
func (a *analyzer) relevance(xz, xr, xh tensor.Vector) float64 {
	var s float64
	for j := 0; j < a.dim; j++ {
		// Carry term: distance of the z input range's lower end from the
		// high saturation boundary (+2). 0 means z is pinned at ~1 and
		// the carry path is dead.
		mz := float64(xz[j]) + float64(a.bz[j])
		sCarry := clampf(2-(mz-float64(a.dz[j])), 0, 4)
		// Candidate term: overlap of the tanh input range with the
		// sensitive area, bounded by the recurrent reach through
		// U_h (r .* h) with |r .* h| <= 1.
		mh := math.Abs(float64(xh[j]) + float64(a.bh[j]))
		t1 := 2 + math.Min(2, mh)
		t2 := math.Min(2, 2+float64(a.dh[j])-math.Max(2, mh))
		sCand := clampf(math.Min(t1, t2), 0, 4)
		s += sCarry + sCand
	}
	return s
}
