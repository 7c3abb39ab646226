package intercell

import "mobilstm/internal/tensor"

// Predictor holds the predicted context link injected at each breakpoint
// (§IV-B, "Accuracy Recovery"): the expectation vector of Eq. 6 for the
// hidden output h and — because the cell state also crosses the cut — for
// the cell state c. One predictor is built per LSTM layer.
type Predictor struct {
	H tensor.Vector
	C tensor.Vector
}

// LinkStats accumulates the empirical distribution of context links
// observed while executing the unmodified LSTM offline over a training
// set, and derives the Eq. 6 expectation. With an empirical distribution
// the expectation Σ_i h_j(i)·ρ_ij is exactly the per-element mean.
type LinkStats struct {
	dim  int
	n    int64
	sumH []float64
	sumC []float64
}

// NewLinkStats returns an accumulator for links of the given dimension.
func NewLinkStats(dim int) *LinkStats {
	return &LinkStats{dim: dim, sumH: make([]float64, dim), sumC: make([]float64, dim)}
}

// Observe records one context link (h_t, c_t). The paper collects all
// links, not only weak ones, since weak and strong links share the same
// distribution pattern and the weak set varies with the threshold.
func (ls *LinkStats) Observe(h, c tensor.Vector) {
	if len(h) != ls.dim || len(c) != ls.dim {
		tensor.Panicf("intercell: Observe dimension mismatch")
	}
	for j := 0; j < ls.dim; j++ {
		ls.sumH[j] += float64(h[j])
		ls.sumC[j] += float64(c[j])
	}
	ls.n++
}

// Count returns the number of links observed.
func (ls *LinkStats) Count() int64 { return ls.n }

// Predictor derives the Eq. 6 expectation vectors. With no observations it
// returns zero vectors (equivalent to a cold start at the breakpoint).
func (ls *LinkStats) Predictor() Predictor {
	p := Predictor{H: tensor.NewVector(ls.dim), C: tensor.NewVector(ls.dim)}
	if ls.n == 0 {
		return p
	}
	inv := 1 / float64(ls.n)
	for j := 0; j < ls.dim; j++ {
		p.H[j] = float32(ls.sumH[j] * inv)
		p.C[j] = float32(ls.sumC[j] * inv)
	}
	return p
}
