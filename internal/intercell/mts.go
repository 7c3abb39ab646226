package intercell

import (
	"mobilstm/internal/gpu"
	"mobilstm/internal/kernels"
)

// FindMTS determines the maximum tissue size for one LSTM layer shape on
// one platform; see FindCellMTS.
func FindMTS(cfg gpu.Config, hidden, maxT int) int {
	return FindCellMTS(cfg, kernels.LSTM, hidden, maxT)
}

// FindCellMTS determines the maximum tissue size for one layer of the
// cell on one platform (§IV-D, offline step 1): the largest tissue size
// whose per-tissue Sgemm still fits under 100% shared-memory bandwidth
// utilization, i.e. does not force a kernel re-configuration. Beyond it,
// performance drops (Fig. 9).
func FindCellMTS(cfg gpu.Config, c kernels.Cell, hidden, maxT int) int {
	if maxT < 1 {
		maxT = 1
	}
	b := kernels.NewCellBuilder(cfg, c)
	mts := 1
	for t := 1; t <= maxT; t++ {
		if _, reconfigured := b.SgemmTissue(hidden, t); reconfigured {
			break
		}
		mts = t
	}
	return mts
}

// MinTissues is Eq. 7: the minimal tissue count for a layer of n cells
// when every tissue reaches the MTS.
func MinTissues(n, mts int) int {
	if mts < 1 {
		mts = 1
	}
	return (n + mts - 1) / mts
}
