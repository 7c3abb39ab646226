// Package intracell implements the paper's intra-cell level optimization
// (§V): Dynamic Row Skip (DRS), which identifies rows of the recurrent
// weight matrices U_f, U_i, U_c whose contribution to the cell output h_t
// is trivial because the corresponding output-gate element o_t[j] is near
// zero — h_t[j] = o_t[j]*tanh(c_t[j]) vanishes regardless of c_t[j].
// It also implements the element-granularity zero-pruning baseline
// [Han et al., Deep Compression] the paper compares against (Fig. 16).
package intracell

import (
	"math"

	"mobilstm/internal/tensor"
)

// TrivialRows returns skip[j] = !(o[j] >= alpha) — o[j] below alpha, or
// NaN, the rule a step's compaction applies (tensor.KeptRowsInto, which
// keeps a tissue's row unless it is trivial for every cell) — and the
// number of trivial rows. skip[j] marks hidden element j, i.e. rows j of
// each of U_f, U_i, U_c (3 skipped matrix rows per marked element). With
// alpha <= 0 nothing is skipped and TrivialRows returns (nil, 0).
func TrivialRows(o tensor.Vector, alpha float64) ([]bool, int) {
	if alpha <= 0 {
		return nil, 0
	}
	a := float32(alpha)
	skip := make([]bool, len(o))
	count := 0
	for j, v := range o {
		if !(v >= a) {
			skip[j] = true
			count++
		}
	}
	return skip, count
}

// PruneMatrix returns a copy of m with every element of magnitude below
// eps zeroed — offline magnitude pruning as in [31]. The returned density
// is the surviving fraction.
func PruneMatrix(m *tensor.Matrix, eps float32) (*tensor.Matrix, float64) {
	out := m.Clone()
	kept := 0
	for i, v := range out.Data {
		if v > -eps && v < eps {
			out.Data[i] = 0
		} else {
			kept++
		}
	}
	if len(out.Data) == 0 {
		return out, 0
	}
	return out, float64(kept) / float64(len(out.Data))
}

// PruneDensity reports the surviving element fraction of the matrices
// under magnitude pruning at eps, without materializing pruned copies.
func PruneDensity(ms []*tensor.Matrix, eps float32) float64 {
	var total, kept int
	for _, m := range ms {
		total += len(m.Data)
		for _, v := range m.Data {
			if v <= -eps || v >= eps {
				kept++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(kept) / float64(total)
}

// PruneEpsForDensity searches the magnitude threshold that leaves
// approximately the target density of elements: the calibration knob the
// zero-pruning baseline exposes (the paper's configuration reduces data
// movement by ~37%, i.e. value+index CSR traffic at ~31.5% density).
func PruneEpsForDensity(ms []*tensor.Matrix, target float64) float32 {
	if target <= 0 {
		return float32(math.Inf(1))
	}
	if target >= 1 {
		return 0
	}
	lo, hi := float32(0), float32(0)
	for _, m := range ms {
		for _, v := range m.Data {
			a := v
			if a < 0 {
				a = -a
			}
			if a > hi {
				hi = a
			}
		}
	}
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if PruneDensity(ms, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
