// End-to-end benchmarks of the simulator's own float32 hot path: the
// united-gate packed kernels running a full Run per execution mode, at
// the quick-profile PTB shape (the trajectory BENCH_hotpath.json
// records; see `make bench-json`). Unlike bench_test.go — which times
// the *simulated* GPU pipeline — these measure the host-side numerics
// the serving loop actually executes per request.
//
// bytes/op (and the derived MB/s) is the united weight volume streamed
// per Run: every cell streams W_{f,i,c,o} once and every step streams
// U_{f,i,c,o} once, per layer — the paper's §III lower bound on memory
// traffic, so MB/s here is directly comparable across PRs.
package mobilstm_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mobilstm/internal/core"
	"mobilstm/internal/equivtest"
	"mobilstm/internal/gpu"
	"mobilstm/internal/gru"
	"mobilstm/internal/intercell"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/stats"
	"mobilstm/internal/tensor"
	"mobilstm/internal/thresholds"
)

// hotMTS is the tissue bound used by the inter-cell modes below: the
// quick-profile MTS neighborhood (intercell.FindMTS lands at 4-6 for the
// Table II shapes); a constant keeps the benchmark free of the GPU
// model and bit-stable across platforms.
const hotMTS = 5

var (
	hotOnce  sync.Once
	hotInst  *model.Instance[*lstm.Network]
	hotPred  []intercell.Predictor
	hotAlpha float64
)

// hotSetup builds the quick-profile PTB instance shared by every
// hot-path benchmark, its Eq. 6 predictors (so the inter-cell modes run
// the full predicted-link flow) and the Inter threshold they divide at
// (hotInterAlpha).
func hotSetup(tb testing.TB) (*model.Instance[*lstm.Network], []intercell.Predictor, float64) {
	tb.Helper()
	hotOnce.Do(func() {
		bench, ok := model.ByName("PTB")
		if !ok {
			panic("hotpath: PTB benchmark missing")
		}
		hotInst = model.Build(bench, model.Quick())
		hotPred = lstm.CollectPredictors(hotInst.Net, hotInst.Seqs[:2])
		hotAlpha = hotInterAlpha(hotInst.Net, hotInst.Seqs[0], hotPred)
	})
	return hotInst, hotPred, hotAlpha
}

// hotInterAlpha is the Inter threshold the hot-path modes divide at,
// derived as the corpus builder's calibration derives its own: the
// relevance of one traced Inter run's links at
// thresholds.CalibInterQuantile, so about that share of the links is
// cut whatever the shape's relevance scale.
func hotInterAlpha(net *lstm.Network, seq []tensor.Vector, pred []intercell.Predictor) float64 {
	tr := &lstm.Trace{}
	net.Run(seq, lstm.RunOptions{Inter: true, MTS: hotMTS, Predictors: pred, Trace: tr})
	var rels []float64
	for _, lt := range tr.Layers {
		rels = append(rels, lt.Relevance...)
	}
	return stats.QuantileOf(rels, thresholds.CalibInterQuantile)
}

// hotBytes is the united weight volume one Run streams (see package
// comment).
func hotBytes(n *lstm.Network, length int) int64 {
	var per int64
	for _, l := range n.Layers {
		per += int64(length) * (l.UnitedWBytes() + l.UnitedUBytes())
	}
	return per
}

// hotMode is one execution mode of the hot-path benchmarks.
type hotMode struct {
	name string
	opt  lstm.RunOptions
}

// hotModes are the four execution modes of the paper: Intra at a
// mid-sweep α, Inter at the calibrated one (hotInterAlpha), so the
// inter modes divide their sequences into tissues
// (TestHotInterModesDivide) and the intra modes skip rows.
func hotModes(pred []intercell.Predictor, alphaInter float64) []hotMode {
	return []hotMode{
		{"baseline", lstm.Baseline()},
		{"inter", lstm.RunOptions{Inter: true, AlphaInter: alphaInter, MTS: hotMTS, Predictors: pred}},
		{"intra", lstm.RunOptions{Intra: true, AlphaIntra: 0.1}},
		{"combined", lstm.RunOptions{Inter: true, AlphaInter: alphaInter, MTS: hotMTS, Predictors: pred,
			Intra: true, AlphaIntra: 0.1}},
	}
}

// TestHotInterModesDivide pins that the inter hot-path modes time
// tissues, not Baseline plus relevance: a traced Run in each breaks a
// nonzero share of its links and forms a tissue of more than one cell.
func TestHotInterModesDivide(t *testing.T) {
	inst, pred, alpha := hotSetup(t)
	for _, m := range hotModes(pred, alpha) {
		if !m.opt.Inter {
			continue
		}
		tr := &lstm.Trace{}
		opt := m.opt
		opt.Trace = tr
		inst.Net.Run(inst.Seqs[0], opt)
		links, breaks, widest := 0, 0, 0
		for _, lt := range tr.Layers {
			links += len(lt.Relevance)
			breaks += len(lt.Breakpoints)
			widest = max(widest, slices.Max(lt.TissueSizes))
		}
		if breaks == 0 || widest < 2 {
			t.Errorf("%s at α_inter %v: %d of %d links broken, widest tissue %d cells", m.name, alpha, breaks, links, widest)
		}
		t.Logf("%s at α_inter %.4g: %d of %d links broken", m.name, alpha, breaks, links)
	}
}

var (
	servedOnce sync.Once
	servedOpt  lstm.RunOptions
)

// hotServed is Intra at the operating point the serving tier runs PTB
// at: the quick-profile PTB engine's AO set over its Intra threshold
// sweep, resolved as the serving tier resolves it (core.AOSet). There a
// member keeps about 36 % of its rows where "intra" (α = 0.1) keeps
// about 54 %, so the "intra-served" rows time the kept-row walks at the
// share the served requests run. The sweep runs once per process.
func hotServed() hotMode {
	servedOnce.Do(func() {
		bench, ok := model.ByName("PTB")
		if !ok {
			panic("hotpath: PTB benchmark missing")
		}
		eng := core.NewEngine(bench, model.Quick(), gpu.TegraX1())
		outs := make([]*core.Outcome, core.ThresholdSets)
		for i := range outs {
			outs[i] = eng.EvaluateSet(sched.Intra, i)
		}
		servedOpt = eng.RunOptionsFor(sched.Intra, core.AOSet(outs))
	})
	return hotMode{"intra-served", servedOpt}
}

// hotChains is the kernel-chain sweep dimension; each sub-benchmark
// switches the process default to its chain (equivtest.UseChain). The
// canonical chain keeps the unsuffixed benchmark names (so the
// BENCH_hotpath.json trajectory across PRs is uninterrupted) and the
// wide AVX2/FMA chain lands as a /avx2 sub-benchmark next to it.
var hotChains = []struct {
	suffix string
	chain  tensor.KernelChain
}{
	{"", equivtest.Canonical()},
	{"/avx2", tensor.ChainAVX2},
}

// BenchmarkRun times one end-to-end Network.Run per execution mode on
// the quick-profile PTB shape — the per-request inference cost of the
// serving loop — under both kernel chains.
func BenchmarkRun(b *testing.B) {
	inst, pred, alpha := hotSetup(b)
	xs := inst.Seqs[0]
	for _, m := range hotModes(pred, alpha) {
		for _, c := range hotChains {
			opt := m.opt
			b.Run(m.name+c.suffix, func(b *testing.B) {
				equivtest.UseChain(b, c.chain)
				b.SetBytes(hotBytes(inst.Net, len(xs)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inst.Net.Run(xs, opt)
				}
			})
		}
	}
}

// BenchmarkRunBatch sweeps the batched forward path over batch sizes
// B ∈ {1, 2, 4, 8, 16} in every mode and at the served Intra point
// (hotServed): one RunBatch per op serving B requests, with
// the per-request cost reported as the custom ns/req metric
// (ns/op / B). The sweep quantifies the §II-C server-style weight
// reuse on the host: the united weights stream once per step for the
// whole batch, so ns/req must fall as B grows (the acceptance bar is
// B=8 strictly below B=1). Every mode runs the same lockstep layer
// loop; combined batches its members' tissues by tissue index, so its
// groups hold up to B·MTS cells.
func BenchmarkRunBatch(b *testing.B) {
	inst, pred, alpha := hotSetup(b)
	for _, m := range append(hotModes(pred, alpha), hotServed()) {
		if m.name == "inter" {
			continue // combined sweeps the lockstep Inter path
		}
		for _, c := range hotChains {
			for _, B := range []int{1, 2, 4, 8, 16} {
				seqs := make([][]tensor.Vector, B)
				var bytes int64
				for i := range seqs {
					seqs[i] = inst.Seqs[i%len(inst.Seqs)]
					bytes += hotBytes(inst.Net, len(seqs[i]))
				}
				opt := m.opt
				b.Run(fmt.Sprintf("%s%s/B=%d", m.name, c.suffix, B), func(b *testing.B) {
					equivtest.UseChain(b, c.chain)
					b.SetBytes(bytes)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						inst.Net.RunBatch(seqs, opt)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/req")
				})
			}
		}
	}
}

// BenchmarkRunWavefront sets the layer wavefront against the layer
// loop on one sequence at the quick-profile PTB shape (three layers,
// h = 192): Run ("loop") and RunWavefrontE ("wavefront"), Baseline,
// Intra and Intra at the served point (hotServed), over T ∈ {12, 30, 48}
// cells of the corpus. The wavefront's
// gain is a second core's, so the pair is read at GOMAXPROCS ≥ 2.
func BenchmarkRunWavefront(b *testing.B) {
	inst, pred, alpha := hotSetup(b)
	cells := slices.Concat(inst.Seqs...)
	forwards := []struct {
		name string
		run  func(xs []tensor.Vector, opt lstm.RunOptions)
	}{
		{"loop", func(xs []tensor.Vector, opt lstm.RunOptions) { inst.Net.Run(xs, opt) }},
		{"wavefront", func(xs []tensor.Vector, opt lstm.RunOptions) {
			if _, _, err := inst.Net.RunWavefrontE(xs, opt); err != nil {
				b.Fatal(err)
			}
		}},
	}
	modes := append(hotModes(pred, alpha), hotServed())
	for _, f := range forwards {
		for _, m := range modes {
			if m.opt.Inter {
				continue // Inter keeps the layer loop
			}
			for _, T := range []int{12, 30, 48} {
				xs, opt := cells[:T], m.opt
				b.Run(fmt.Sprintf("%s/%s/T=%d", f.name, m.name, T), func(b *testing.B) {
					b.SetBytes(hotBytes(inst.Net, T))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f.run(xs, opt)
					}
				})
			}
		}
	}
}

// BenchmarkRunGRU times the GRU counterpart (3h united W, 2h united
// U_{z,r}) at a KWS-like shape.
func BenchmarkRunGRU(b *testing.B) {
	const (
		hidden = 128
		length = 60
		layers = 2
	)
	r := rng.New(0xbeef)
	n := gru.NewNetwork(hidden, hidden, layers, 8)
	n.InitRandom(r.Split(), nil, 0.5)
	gen := r.Split()
	xs := make([]tensor.Vector, length)
	for t := range xs {
		v := tensor.NewVector(hidden)
		for j := range v {
			v[j] = gen.NormF32(0, 1)
		}
		xs[t] = v
	}
	var bytes int64
	for _, l := range n.Layers {
		bytes += int64(length) * (3*int64(l.Hidden)*int64(l.Input)*4 + l.UnitedUBytes())
	}
	modes := []struct {
		name string
		opt  gru.RunOptions
	}{
		{"baseline", gru.Baseline()},
		{"intra", gru.RunOptions{Intra: true, AlphaIntra: 0.1}},
	}
	for _, m := range modes {
		for _, c := range hotChains {
			opt := m.opt
			b.Run(m.name+c.suffix, func(b *testing.B) {
				equivtest.UseChain(b, c.chain)
				b.SetBytes(bytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Run(xs, opt)
				}
			})
		}
	}
	// The GRU batch sweep at the endpoints of the LSTM sweep, enough to
	// track the GRU's GEMV→GEMM win in the trajectory.
	for _, B := range []int{1, 8} {
		seqs := make([][]tensor.Vector, B)
		for i := range seqs {
			seqs[i] = xs
		}
		b.Run(fmt.Sprintf("batch/B=%d", B), func(b *testing.B) {
			b.SetBytes(bytes * int64(B))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.RunBatch(seqs, gru.Baseline())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/req")
		})
	}
}
