package lstm

import (
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/intercell"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// The forward-path contract suite (internal/equivtest/contract.go) bound
// to the LSTM cell: one named test per check, so the Makefile's -run
// patterns and the race/chain-matrix gates select them by name.

var kind = equivtest.Kind{
	New: func(input, hidden, layers, classes int, seed uint64) equivtest.Net {
		n := NewNetwork(input, hidden, layers, classes)
		n.InitRandom(rng.New(seed), func(l int) float64 { return 1 + 0.2*float64(l) }, 0.5)
		return n
	},
	Poke: func(n equivtest.Net) func() {
		l := n.(*Network).Layers[0]
		for i := range l.Wf.Data {
			l.Wf.Data[i] *= 1.5
		}
		return l.Invalidate
	},
	AlphaIntra: 0.1,
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
		w := l.Wf
		l.Wf = tensor.NewMatrix(l.Hidden, l.Input+1)
		l.Invalidate()
		return func() { l.Wf = w; l.Invalidate() }
	},
}

// TestMain fails the package if a test leaves the process-default
// kernel chain switched.
func TestMain(m *testing.M) { equivtest.Main(m) }

func TestRunBatchMatchesSerial(t *testing.T) { equivtest.BatchMatchesSerial(t, kind) }
func TestWideRunBatchMatchesSerial(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.BatchMatchesSerial(t, kind)
}
func TestClassifyBatchMatchesSerial(t *testing.T) { equivtest.ClassifyBatchMatchesSerial(t, kind) }
func TestRunBatchEValidation(t *testing.T)        { equivtest.RunBatchEValidation(t, kind) }
func TestCheckSequence(t *testing.T)              { equivtest.CheckSequence(t, kind) }
func TestRunRepeatable(t *testing.T)              { equivtest.RunRepeatable(t, kind) }

func TestRunBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.RunBitwiseAcrossGOMAXPROCS(t, kind)
}
func TestWideRunBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.RunBitwiseAcrossGOMAXPROCS(t, kind)
}
func TestRunBatchBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.RunBatchBitwiseAcrossGOMAXPROCS(t, kind)
}
func TestWideRunBatchBitwiseIdenticalAcrossGOMAXPROCS(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.RunBatchBitwiseAcrossGOMAXPROCS(t, kind)
}

func TestConcurrentRunsShareColdCache(t *testing.T) {
	equivtest.ConcurrentRunsShareColdCache(t, kind)
}
func TestConcurrentWideRunsShareColdCache(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	equivtest.ConcurrentRunsShareColdCache(t, kind)
}
func TestConcurrentRunBatchSharesColdCache(t *testing.T) {
	equivtest.ConcurrentRunBatchSharesColdCache(t, kind)
}
func TestInvalidateRefreshesPackedCache(t *testing.T) {
	equivtest.InvalidateRefreshesPackedCache(t, kind)
}
func TestWritersInvalidatePackedCache(t *testing.T) {
	equivtest.WritersInvalidatePackedCache(t, kind)
}
func TestWavefrontBitwiseEqualsRun(t *testing.T)   { equivtest.WavefrontMatchesRun(t, kind) }
func TestWavefrontHelperPanicIsError(t *testing.T) { equivtest.WavefrontHelperPanicIsError(t, kind) }
func TestOutputsOutliveNextPass(t *testing.T)      { equivtest.OutputsOutliveNextPass(t, kind) }
func TestArenasRecycleAcrossGoroutines(t *testing.T) {
	equivtest.ArenasRecycleAcrossGoroutines(t, kind)
}
func TestSteadyStateAllocatesNoArena(t *testing.T) {
	equivtest.SteadyStateAllocatesNoArena(t, kind)
}
func TestChainAutoFollowsProcessDefault(t *testing.T) {
	equivtest.ChainAutoFollowsProcessDefault(t, kind)
}
func TestWideChainULPDrift(t *testing.T) { equivtest.ChainULPDrift(t, kind) }

func FuzzRunBatchEquivalence(f *testing.F) { equivtest.FuzzRunBatchEquivalence(f, kind) }
