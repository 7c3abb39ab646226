package recurrent

import "mobilstm/internal/intercell"

// RunOptions selects the execution mode and its thresholds.
type RunOptions struct {
	// Inter enables the inter-cell optimization: layer division at links
	// with relevance below AlphaInter, predicted-link recovery, and
	// tissue re-organization bounded by MTS.
	Inter      bool
	AlphaInter float64
	// MTS is the platform's maximum tissue size (from intercell.FindMTS);
	// required when Inter is set.
	MTS int
	// Predictors supplies the Eq. 6 predicted context link per layer;
	// required when Inter is set (zero predictors are a valid cold
	// start, but accuracy suffers — exactly the trade the paper makes).
	// GRU layers carry no cell state and read only the H vector.
	Predictors []intercell.Predictor

	// Intra enables Dynamic Row Skip with the near-zero threshold
	// AlphaIntra on the cell's DRS gate (the LSTM output gate, the GRU
	// update gate).
	Intra      bool
	AlphaIntra float64

	// Trace, when non-nil, collects the structural decisions of the run
	// (relevance values, breakpoints, tissue layout, skip counts) — the
	// information the paper's PyTorch stage exports to DeepBench, and
	// that our scheduler replays on the GPU model.
	Trace *Trace
}

// Trace records the structural decisions of one optimized run.
type Trace struct {
	Layers []LayerTrace
}

// LayerTrace is the per-layer record.
type LayerTrace struct {
	Layer int
	Cells int
	// Relevance[t-1] is the Algorithm 2 value S of the link into cell t.
	Relevance []float64
	// Breakpoints are the cell indices whose incoming link was cut.
	Breakpoints []int
	// SublayerSizes and TissueSizes describe the division and the
	// aligned re-organization.
	SublayerSizes []int
	TissueSizes   []int
	// SkipCounts[k] is the number of trivial hidden elements shared by
	// tissue k — a single cell without Inter — and zero without Intra.
	SkipCounts []int
}

// Sublayers returns the number of sub-layers the layer divided into.
func (lt *LayerTrace) Sublayers() int { return len(lt.SublayerSizes) }
