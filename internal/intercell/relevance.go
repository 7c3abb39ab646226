// Package intercell implements the paper's inter-cell level optimization
// (§IV): quantifying the context-link strength between adjacent LSTM cells
// (Algorithm 2), dividing a layer into independent sub-layers at weak
// links, predicting the lost links (Eq. 6), and re-organizing the
// sub-layers into bandwidth-balanced tissues bounded by the platform's
// maximum tissue size (MTS).
//
//lint:file-ignore float64leak Algorithm 2 saturation scores are defined on float64 gate pre-activations (transcendental domain, like tensor/activation.go); alpha_inter is calibrated from this same float64 pipeline, so threshold comparisons stay self-consistent
package intercell

import (
	"mobilstm/internal/tensor"
)

// Analyzer computes the relevance value S of Algorithm 2 for the links of
// one LSTM layer. It captures the per-layer constants — the per-row L1
// norms D_g of the recurrent matrices (line 2) and the bias vectors — so
// the per-cell work is O(H).
type Analyzer struct {
	dim            int
	df, di, dc, do tensor.Vector
	bf, bi, bc, bo tensor.Vector
}

// NewAnalyzer builds an analyzer from the four recurrent weight matrices
// (each H x H) and bias vectors (each length H) of one layer.
func NewAnalyzer(uf, ui, uc, uo *tensor.Matrix, bf, bi, bc, bo tensor.Vector) *Analyzer {
	h := uf.Rows
	if ui.Rows != h || uc.Rows != h || uo.Rows != h ||
		len(bf) != h || len(bi) != h || len(bc) != h || len(bo) != h {
		tensor.Panicf("intercell: inconsistent layer shapes")
	}
	return &Analyzer{
		dim: h,
		df:  tensor.AbsRowSums(uf),
		di:  tensor.AbsRowSums(ui),
		dc:  tensor.AbsRowSums(uc),
		do:  tensor.AbsRowSums(uo),
		bf:  bf, bi: bi, bc: bc, bo: bo,
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// sOverlap evaluates Algorithm 2 line 5 for the input/cell/output gates:
// the overlap between the activation-input range [m-D, m+D] (m = X'+b)
// and the sensitive area [-2, 2]. The published formula can go negative
// when the range lies entirely in a saturated region; since an overlap
// length is non-negative we clamp at 0 (and at the full sensitive width
// 4 above), which matches the geometric quantity the text describes.
func sOverlap(m, d float64) float64 {
	am := abs(m)
	t1 := 2 + min2(2, am)
	t2 := min2(2, 2+d-max2(2, am))
	s := t1
	if t2 < s {
		s = t2
	}
	return clamp(s, 0, 4)
}

// sForget evaluates Algorithm 2 line 4 for the forget gate: how far the
// upper end of the input range reaches back into the sensitive area. A
// forget gate pinned in its high saturation (f_t ~ 1) passes the previous
// state through regardless of h_{t-1}, so only the upper-side overlap
// matters.
func sForget(m, d float64) float64 {
	return clamp(m+d+2, 0, 4)
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Relevance computes the relevance value S for the link into one cell,
// given the cell's per-gate input projections X'_g = W_g * x_t (each
// length H). A smaller S means a weaker context link; 0 means the
// previous cell's output cannot influence this cell at all.
func (a *Analyzer) Relevance(xf, xi, xc, xo tensor.Vector) float64 {
	if len(xf) != a.dim || len(xi) != a.dim || len(xc) != a.dim || len(xo) != a.dim {
		tensor.Panicf("intercell: Relevance input length mismatch")
	}
	var s float64
	for j := 0; j < a.dim; j++ {
		sf := sForget(float64(xf[j])+float64(a.bf[j]), float64(a.df[j]))
		si := sOverlap(float64(xi[j])+float64(a.bi[j]), float64(a.di[j]))
		sc := sOverlap(float64(xc[j])+float64(a.bc[j]), float64(a.dc[j]))
		so := sOverlap(float64(xo[j])+float64(a.bo[j]), float64(a.do[j]))
		s += so * (sf + si*sc)
	}
	return s
}
