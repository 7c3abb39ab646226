// Ablation benchmarks for the design choices DESIGN.md calls out, plus
// the paper's §II-B GRU extension. These are not paper figures; they
// justify individual mechanisms.
package mobilstm_test

import (
	"testing"

	"mobilstm/internal/accuracy"
	"mobilstm/internal/gpu"
	"mobilstm/internal/gru"
	"mobilstm/internal/intercell"
	"mobilstm/internal/kernels"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/stats"
	"mobilstm/internal/tensor"
)

// BenchmarkAblationTissueAlignment compares raw tissue formation against
// MTS-bounded alignment (§IV-C): formation alone produces fat tissues
// (over the shared-memory roofline) and thin ones (poor reuse); alignment
// recovers the minimal tissue count.
func BenchmarkAblationTissueAlignment(b *testing.B) {
	r := rng.New(42)
	n, mts := 200, 5
	var breaks []int
	for i := 1; i < n; i++ {
		if r.Bernoulli(0.25) {
			breaks = append(breaks, i)
		}
	}
	subs := intercell.Sublayers(n, breaks)
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	kb := kernels.NewBuilder(cfg)
	simulate := func(tissues [][]int) float64 {
		var ks []gpu.KernelSpec
		for _, tis := range tissues {
			k, _ := kb.SgemmTissue(650, len(tis))
			ks = append(ks, k, kb.EW(650, len(tis)))
		}
		return sim.Run(ks).Cycles
	}
	var formedC, alignedC float64
	for i := 0; i < b.N; i++ {
		formed := intercell.FormTissues(subs)
		aligned := intercell.AlignTissues(subs, mts)
		formedC = simulate(formed)
		alignedC = simulate(aligned)
		if i == 0 {
			b.Logf("formation only: %d tissues, %.0f cycles; aligned: %d tissues, %.0f cycles (%.2fx)",
				len(formed), formedC, len(aligned), alignedC, formedC/alignedC)
		}
	}
	b.ReportMetric(formedC/alignedC, "alignment-gain-x")
}

// BenchmarkAblationPredictedLink measures the accuracy-recovery value of
// the Eq. 6 predicted context link against a zero (cold) link at the
// same division thresholds.
func BenchmarkAblationPredictedLink(b *testing.B) {
	bm, _ := model.ByName("BABI")
	prof := model.Profile{Name: "ablate", HiddenCap: 96, LengthCap: 24,
		AccSamples: 30, PredictorSamples: 4, StatSamples: 2}
	inst := model.Build(bm, prof)
	preds := lstm.CollectPredictors(inst.Net, inst.PredictorSeqs())
	zeros := make([]intercell.Predictor, len(preds))
	for i, l := range inst.Net.Layers {
		_ = l
		zeros[i] = intercell.Predictor{
			H: tensor.NewVector(inst.Hidden), C: tensor.NewVector(inst.Hidden)}
	}
	// A deliberately aggressive threshold so the recovery matters.
	tr := &lstm.Trace{}
	inst.Net.Run(inst.StatSeqs()[0], lstm.RunOptions{Inter: true, MTS: 5, Predictors: preds, Trace: tr})
	var rels []float64
	for _, lt := range tr.Layers {
		rels = append(rels, lt.Relevance...)
	}
	alpha := stats.QuantileOf(rels, 0.30)

	seqs, refs := inst.AccSeqs()
	var withPred, withZero float64
	for i := 0; i < b.N; i++ {
		withPred = accuracy.Score(inst.Net, seqs, refs,
			lstm.RunOptions{Inter: true, AlphaInter: alpha, MTS: 5, Predictors: preds})
		withZero = accuracy.Score(inst.Net, seqs, refs,
			lstm.RunOptions{Inter: true, AlphaInter: alpha, MTS: 5, Predictors: zeros})
		if i == 0 {
			b.Logf("accuracy with Eq.6 predictor: %.3f, with zero link: %.3f", withPred, withZero)
		}
	}
	b.ReportMetric(withPred, "predicted-acc")
	b.ReportMetric(withZero, "zero-link-acc")
}

// BenchmarkAblationHardSigmoid swaps the exact sigmoid for the hard
// sigmoid (Fig. 7): the sensitive-area analysis must remain valid, so
// the accuracy at mid thresholds should be comparable.
func BenchmarkAblationHardSigmoid(b *testing.B) {
	bm, _ := model.ByName("MR")
	prof := model.Profile{Name: "ablate", HiddenCap: 96, LengthCap: 22,
		AccSamples: 30, PredictorSamples: 4, StatSamples: 2}
	inst := model.Build(bm, prof)
	preds := lstm.CollectPredictors(inst.Net, inst.PredictorSeqs())
	seqs, refs := inst.AccSeqs()
	opt := lstm.RunOptions{Intra: true, AlphaIntra: 0.15, Inter: true,
		AlphaInter: 0, MTS: 5, Predictors: preds}
	var exact, hard float64
	for i := 0; i < b.N; i++ {
		inst.Net.Gate = tensor.ActSigmoid
		exact = accuracy.Score(inst.Net, seqs, refs, opt)
		inst.Net.Gate = tensor.ActHardSigmoid
		hard = accuracy.Score(inst.Net, seqs, refs, opt)
		inst.Net.Gate = tensor.ActSigmoid
		if i == 0 {
			b.Logf("DRS accuracy: exact sigmoid %.3f, hard sigmoid %.3f", exact, hard)
		}
	}
	b.ReportMetric(exact, "sigmoid-acc")
	b.ReportMetric(hard, "hard-sigmoid-acc")
}

// BenchmarkExtGRU exercises the §II-B extension: the same optimizations
// applied to a GRU network — numeric accuracy of carry-DRS plus the
// simulated timing of the adjusted flows.
func BenchmarkExtGRU(b *testing.B) {
	// Numeric side: a BABI-shaped GRU.
	net := gru.NewNetwork(96, 96, 2, 8)
	net.InitRandom(rng.New(77), func(l int) float64 { return 1 + 0.3*float64(l) }, 0.5)
	r := rng.New(78)
	seqs := make([][]tensor.Vector, 0, 24)
	refs := make([]int, 0, 24)
	for len(seqs) < 24 {
		xs := make([]tensor.Vector, 24)
		for t := range xs {
			v := tensor.NewVector(96)
			for j := range v {
				v[j] = r.NormF32(0, 1.5)
			}
			xs[t] = v
		}
		// Keep confidently classified samples only, mirroring the main
		// corpus filter.
		logits := net.Run(xs, gru.Baseline())
		best := tensor.ArgMax(logits)
		confident := true
		for j, v := range logits {
			if j != best && logits[best]-v < 0.45 {
				confident = false
				break
			}
		}
		if !confident {
			continue
		}
		seqs = append(seqs, xs)
		refs = append(refs, best)
	}
	preds := gru.CollectPredictors(net, seqs[:2])

	// Timing side: one MT-shaped GRU layer (large enough to amortize the
	// extra launches), baseline against DRS with half the candidate rows
	// skipped, lowered through the GRU's block counts.
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	basePlan := sched.Plan{Cfg: cfg, Mode: sched.Baseline, Hidden: 500, Input: 500, Length: 50, Layers: 1,
		Cell: net.Shape()}
	drsPlan := basePlan
	drsPlan.Mode, drsPlan.Stats = sched.Intra, []sched.LayerStats{{SkipFrac: 0.5}}
	var acc float64
	var speedup float64
	for i := 0; i < b.N; i++ {
		match := 0
		for s, xs := range seqs {
			got := net.Classify(xs, gru.RunOptions{
				Inter: true, AlphaInter: 0, MTS: 5, Predictors: preds,
				Intra: true, AlphaIntra: 0.12,
			})
			if got == refs[s] {
				match++
			}
		}
		acc = float64(match) / float64(len(seqs))

		speedup = sim.Run(sched.Kernels(basePlan)).Cycles / sim.Run(sched.Kernels(drsPlan)).Cycles
		if i == 0 {
			b.Logf("GRU carry-DRS: accuracy %.3f, simulated DRS-flow speedup %.2fx "+
				"(ceiling lower than LSTM: only U_h rows are skippable)", acc, speedup)
		}
	}
	b.ReportMetric(acc, "gru-drs-acc")
	b.ReportMetric(speedup, "gru-drs-x")
}

// BenchmarkExtCrossPlatform evaluates the framework's portability across
// GPU generations: the offline MTS discovery re-tunes the tissue bound
// per platform (§IV-C).
func BenchmarkExtCrossPlatform(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.CrossPlatform("PTB")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkExtDVFS spends the combined optimization's latency headroom on
// GPU frequency scaling: at iso-latency with the baseline, most of the
// speedup converts into additional energy saving because the LSTM's
// memory-bound phases barely slow down at lower core clocks.
func BenchmarkExtDVFS(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.IsoLatencyDVFS("PTB")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkExtServerContrast reproduces the §II-C motivation: a server
// GPU pipelines layers with resident weights; the mobile GPU cannot, and
// the paper's optimizations close part of that gap on-device.
func BenchmarkExtServerContrast(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.ServerContrast("PTB")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkExtGRUSweep evaluates the full GRU threshold sweep across the
// GRU zoo (the extension's counterpart to Fig. 19).
func BenchmarkExtGRUSweep(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.GRUSweep()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkExtRequestBatching contrasts exact cross-request batching
// (which reuses U but makes interactive users queue) against the paper's
// single-request tissues.
func BenchmarkExtRequestBatching(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.RequestBatching("BABI", 200)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkExtBandwidthSensitivity sweeps off-chip bandwidth: the
// baseline scales with it (it is bandwidth-bound) and the optimizations
// matter most where bandwidth is scarce.
func BenchmarkExtBandwidthSensitivity(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.BandwidthSensitivity("PTB")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}
