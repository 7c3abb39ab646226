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
// NaN, the rule TissueKeptRowsInto applies — and the number of trivial
// rows. skip[j] marks hidden element j, i.e. rows j of each of U_f, U_i,
// U_c (3 skipped matrix rows per marked element). With alpha <= 0 nothing
// is skipped and TrivialRows returns (nil, 0).
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

// TissueKeptRowsInto is the tissue's DRS mask compacted into the rows
// the second stage computes — the host side of the CRM's prefix sum
// (§V-B). The tissue's gemm computes each surviving row against all its
// cells, so a row is skipped only if it is trivial for every cell. dst[:n]
// receives, ascending, every row j that some cell o of
// the tissue keeps (o[j] >= alpha; a row is trivial for a cell where
// !(o[j] >= alpha), so a NaN is trivial), and the result is dst[:n].
// dst is a caller-owned buffer of the cells' length, so per-tissue calls
// on the inference hot path do not allocate. Every cell is validated
// before any row is read. The pass is branch-free per row: with several
// cells, each cell ORs its keep flags into dst in one pass of its own,
// and then row j is written to dst[n] unconditionally and kept by
// advancing n by its flag (n <= j, so the compaction runs in place).
// With alpha <= 0 (DRS off) every row is kept.
func TissueKeptRowsInto(dst []int, os []tensor.Vector, alpha float64) []int {
	dim := len(dst)
	for _, o := range os {
		if len(o) != dim {
			tensor.Panicf("intracell: TissueKeptRowsInto cell length %d, mask length %d", len(o), dim)
		}
	}
	if alpha <= 0 {
		for j := range dst {
			dst[j] = j
		}
		return dst
	}
	a := float32(alpha)
	n := 0
	if len(os) == 1 {
		for j, v := range os[0] {
			dst[n] = j
			n += keep(v >= a)
		}
		return dst[:n]
	}
	clear(dst)
	for _, o := range os {
		for j, v := range o[:len(dst)] {
			dst[j] |= keep(v >= a)
		}
	}
	for j, k := range dst {
		dst[n] = j
		n += k
	}
	return dst[:n]
}

// keep is 1 for a kept row and 0 for a trivial one; the compiler lowers
// it to a flag-setting instruction, not a branch.
func keep(b bool) int {
	if b {
		return 1
	}
	return 0
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
