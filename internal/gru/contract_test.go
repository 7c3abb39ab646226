package gru

import (
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/intercell"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// The forward-path contract suite (internal/equivtest/contract.go) bound
// to the GRU cell: one named test per check, so the Makefile's -run
// patterns and the race/chain-matrix gates select them by name.

var kind = equivtest.Kind{
	New: func(input, hidden, layers, classes int, seed uint64) equivtest.Net {
		n := NewNetwork(input, hidden, layers, classes)
		n.InitRandom(rng.New(seed), func(l int) float64 { return 1 + 0.2*float64(l) }, 0.5)
		return n
	},
	Poke: func(n equivtest.Net) func() {
		l := n.(*Network).Layers[0]
		for i := range l.Wz.Data {
			l.Wz.Data[i] *= 1.5
		}
		return l.Invalidate
	},
	AlphaIntra: 0.15,
	Calibrate: func(n equivtest.Net, seqs [][]tensor.Vector) {
		Calibrate(n.(*Network), seqs, func(l int) float64 { return 1.2 + 0.4*float64(l) })
	},
	CollectPredictors: func(n equivtest.Net, seqs [][]tensor.Vector) []intercell.Predictor {
		return CollectPredictors(n.(*Network), seqs)
	},
	InvalidateAll: func(n equivtest.Net) {
		for _, l := range n.(*Network).Layers {
			l.Invalidate()
		}
	},
	Misshape: func(n equivtest.Net, layer int) func() {
		l := n.(*Network).Layers[layer]
		w := l.Wz
		l.Wz = tensor.NewMatrix(l.Hidden, l.Input+1)
		l.Invalidate()
		return func() { l.Wz = w; l.Invalidate() }
	},
}

// TestMain fails the package if a test leaves the process-default
// kernel chain switched.
func TestMain(m *testing.M) { equivtest.Main(m) }

func TestGRURunBatchMatchesSerial(t *testing.T) { equivtest.BatchMatchesSerial(t, kind) }
func TestGRUWideRunBatchMatchesSerial(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.BatchMatchesSerial(t, kind)
}
func TestGRUClassifyBatchMatchesSerial(t *testing.T) { equivtest.ClassifyBatchMatchesSerial(t, kind) }
func TestGRURunBatchEValidation(t *testing.T)        { equivtest.RunBatchEValidation(t, kind) }
func TestGRUCheckSequence(t *testing.T)              { equivtest.CheckSequence(t, kind) }
func TestGRURunRepeatable(t *testing.T)              { equivtest.RunRepeatable(t, kind) }

func TestGRURunBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.RunBitwiseAcrossGOMAXPROCS(t, kind)
}
func TestGRUWideRunBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.RunBitwiseAcrossGOMAXPROCS(t, kind)
}
func TestGRURunBatchBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.RunBatchBitwiseAcrossGOMAXPROCS(t, kind)
}
func TestGRUWideRunBatchBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.RunBatchBitwiseAcrossGOMAXPROCS(t, kind)
}

func TestGRUConcurrentRunsShareColdCache(t *testing.T) {
	equivtest.ConcurrentRunsShareColdCache(t, kind)
}
func TestGRUConcurrentWideRunsShareColdCache(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.ConcurrentRunsShareColdCache(t, kind)
}
func TestGRUConcurrentRunBatchSharesColdCache(t *testing.T) {
	equivtest.ConcurrentRunBatchSharesColdCache(t, kind)
}
func TestGRUInvalidateRefreshesPackedCache(t *testing.T) {
	equivtest.InvalidateRefreshesPackedCache(t, kind)
}
func TestGRUWritersInvalidatePackedCache(t *testing.T) {
	equivtest.WritersInvalidatePackedCache(t, kind)
}
func TestGRUOutputsOutliveNextPass(t *testing.T) { equivtest.OutputsOutliveNextPass(t, kind) }
func TestGRUArenasRecycleAcrossGoroutines(t *testing.T) {
	equivtest.ArenasRecycleAcrossGoroutines(t, kind)
}
func TestGRUSteadyStateAllocatesNoArena(t *testing.T) {
	equivtest.SteadyStateAllocatesNoArena(t, kind)
}
func TestGRUWavefrontBitwiseEqualsRun(t *testing.T) { equivtest.WavefrontMatchesRun(t, kind) }
func TestGRUWavefrontHelperPanicIsError(t *testing.T) {
	equivtest.WavefrontHelperPanicIsError(t, kind)
}
func TestGRUChainAutoFollowsProcessDefault(t *testing.T) {
	equivtest.ChainAutoFollowsProcessDefault(t, kind)
}
func TestGRUWideChainULPDrift(t *testing.T) { equivtest.ChainULPDrift(t, kind) }

func FuzzGRURunBatchEquivalence(f *testing.F) { equivtest.FuzzRunBatchEquivalence(f, kind) }
