// Package core is the paper's primary contribution assembled into one
// engine: the memory-friendly LSTM execution system for mobile GPUs. An
// Engine owns a benchmark's synthetic model, the offline calibration
// artifacts of Fig. 10 (MTS, threshold upper limits, predicted context
// links), and evaluates any execution mode for speed, energy and accuracy.
// The offline flow does not depend on the cell, so the same engine runs
// the GRU extension of §II-B (GRUEngine).
package core

import (
	"fmt"
	"sort"
	"sync"

	"mobilstm/internal/accuracy"
	"mobilstm/internal/energy"
	"mobilstm/internal/gpu"
	"mobilstm/internal/gru"
	"mobilstm/internal/intercell"
	"mobilstm/internal/intracell"
	"mobilstm/internal/kernels"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/stats"
	"mobilstm/internal/tensor"
	"mobilstm/internal/thresholds"
	"mobilstm/internal/tradeoff"
)

// AlphaIntraMax is the upper limit of the DRS near-zero threshold; see
// internal/thresholds for the rationale. Re-exported because this is the
// package consumers build sweeps against.
const AlphaIntraMax = thresholds.AlphaIntraMax

// ThresholdSets is the number of (alpha_inter, alpha_intra) pairs in the
// paper's sensitivity sweep: set 0 is the exact baseline, set 10 the most
// aggressive (§VI-C).
const ThresholdSets = thresholds.Sets

// Net is the network an engine evaluates: *lstm.Network or *gru.Network.
type Net interface {
	model.Net
	ClassifyBatch(seqs [][]tensor.Vector, opt recurrent.RunOptions) []int
	Shape() recurrent.Shape
}

// EngineOf evaluates the memory-friendly system on one benchmark built
// as a network of type N.
type EngineOf[N Net] struct {
	Cfg     gpu.Config
	EnergyP energy.Params
	B       model.Benchmark
	Inst    *model.Instance[N]

	// Offline artifacts (Fig. 10 steps 1-4).
	MTS           int
	AlphaInterMax float64
	Predictors    []intercell.Predictor

	// relDist is the sorted pooled Algorithm 2 relevance distribution
	// from the offline profiling runs; qMax is the quantile whose
	// threshold reaches the minimal tissue count. Threshold sets walk
	// quantiles of this distribution so every step adds breakpoints.
	relDist []float64
	qMax    float64

	sim *gpu.Simulator

	// baseline is the cached unoptimized evaluation. The sync.Once guard
	// makes the lazy fill safe when one engine is shared by concurrent
	// serve workers; everything else on the engine is immutable after
	// NewEngine.
	baselineOnce sync.Once
	baseline     *Outcome
}

// Engine is the paper's system: the engine over an LSTM.
type Engine = EngineOf[*lstm.Network]

// GRUEngine is the engine over a GRU (§II-B).
type GRUEngine = EngineOf[*gru.Network]

// NewEngine builds the benchmark as an LSTM and performs the offline
// calibration: MTS discovery (step 1), the alpha_inter upper limit that
// reaches the minimal tissue count N_min (step 2), and the Eq. 6
// predicted-link collection (step 4).
func NewEngine(b model.Benchmark, prof model.Profile, cfg gpu.Config) *Engine {
	return newEngine(model.LSTM, b, prof, cfg)
}

// NewGRUEngine is NewEngine for a GRU benchmark (model.GRUZoo).
func NewGRUEngine(b model.Benchmark, prof model.Profile, cfg gpu.Config) *GRUEngine {
	return newEngine(model.GRU, b, prof, cfg)
}

func newEngine[N Net](c model.Cell[N], b model.Benchmark, prof model.Profile, cfg gpu.Config) *EngineOf[N] {
	e := &EngineOf[N]{Cfg: cfg, EnergyP: energy.TegraX1(), B: b}
	e.Inst = model.BuildCell(c, b, prof)
	e.sim = gpu.NewSimulator(cfg)
	s := e.Inst.Net.Shape()
	e.MTS = intercell.FindCellMTS(cfg, kernels.Cell{Gates: s.Gates, First: s.First, State: s.State}, b.Hidden, 16)
	e.Predictors = c.Predictors(e.Inst.Net, e.Inst.PredictorSeqs())
	e.AlphaInterMax = e.calibrateAlphaInter()
	return e
}

// calibrateAlphaInter implements Fig. 10 step 2: find the smallest
// relevance threshold whose division reaches the minimal tissue count
// N_min = ceil(N/MTS) per layer; that value is the upper limit of
// alpha_inter. If even full division cannot reach N_min (short layers),
// the limit is just above the largest observed relevance.
func (e *EngineOf[N]) calibrateAlphaInter() float64 {
	rels := e.collectRelevance()
	if len(rels) == 0 {
		return 0
	}
	sort.Float64s(rels)
	e.relDist = rels
	nmin := intercell.MinTissues(e.B.Length, e.MTS)
	// Walk threshold candidates up the observed distribution until the
	// synthesized full-shape division reaches N_min tissues per layer.
	for q := 5; q <= 100; q += 5 {
		rate := float64(q) / 100
		if tissueCountAtRate(e.B.Length, rate, e.MTS) <= nmin {
			e.qMax = rate
			// The repo-wide quantile convention sorted[int(q*(n-1))]
			// (stats.Quantile), the same index rule Thresholds() walks —
			// an ad-hoc int(rate*n)-1 here used to disagree by one index
			// for some (rate, n), making set 10 miss the calibrated limit.
			return stats.Quantile(rels, rate) * thresholds.TieBreakUp // break ties upward
		}
	}
	e.qMax = 1
	return rels[len(rels)-1] * thresholds.CalibOvershoot
}

// collectRelevance gathers Algorithm 2 values across the structural
// sample set and all layers.
func (e *EngineOf[N]) collectRelevance() []float64 {
	var out []float64
	for _, xs := range e.Inst.StatSeqs() {
		tr := &recurrent.Trace{}
		opt := recurrent.RunOptions{
			Inter: true, AlphaInter: 0, MTS: e.MTS,
			Predictors: e.Predictors, Trace: tr,
		}
		e.Inst.Net.Run(xs, opt)
		for _, lt := range tr.Layers {
			out = append(out, lt.Relevance...)
		}
	}
	return out
}

// tissueCountAtRate synthesizes a division at the given break rate and
// returns the aligned tissue count (deterministic seed).
func tissueCountAtRate(n int, rate float64, mts int) int {
	r := rng.New(uint64(n)*1315423911 + uint64(rate*1e6))
	var breaks []int
	for t := 1; t < n; t++ {
		if r.Bernoulli(rate) {
			breaks = append(breaks, t)
		}
	}
	subs := intercell.Sublayers(n, breaks)
	return len(intercell.AlignTissues(subs, mts))
}

// Thresholds returns threshold set i (0..10): a walk from the exact
// baseline (set 0) to the calibrated upper limits (set 10). The DRS
// threshold walks linearly; the relevance threshold walks quantiles of
// the offline-profiled relevance distribution, so each step breaks
// additional links — the observed distribution is heavily concentrated
// and a linear walk would leave most sets inert.
func (e *EngineOf[N]) Thresholds(set int) (alphaInter, alphaIntra float64) {
	set = thresholds.ClampSet(set)
	f := float64(set) / float64(ThresholdSets-1)
	alphaIntra = AlphaIntraMax * f
	if set == 0 || len(e.relDist) == 0 {
		return 0, alphaIntra
	}
	alphaInter = stats.Quantile(e.relDist, f*e.qMax) * thresholds.TieBreakUp
	if alphaInter > e.AlphaInterMax {
		alphaInter = e.AlphaInterMax
	}
	return alphaInter, alphaIntra
}

// Structure measures the per-layer structural statistics (break rate,
// skip fraction) of the numeric pipeline under the thresholds — the
// information the paper's PyTorch stage exports to the board replay.
func (e *EngineOf[N]) Structure(mode sched.Mode, alphaInter, alphaIntra float64) []sched.LayerStats {
	stats := make([]sched.LayerStats, e.B.Layers)
	if mode == sched.Baseline || mode == sched.ZeroPrune {
		return stats
	}
	opt := e.runOptions(mode, alphaInter, alphaIntra)
	links := make([]float64, e.B.Layers)
	breaks := make([]float64, e.B.Layers)
	skipSum := make([]float64, e.B.Layers)
	skipUnits := make([]float64, e.B.Layers)
	for _, xs := range e.Inst.StatSeqs() {
		tr := &recurrent.Trace{}
		o := opt
		o.Trace = tr
		e.Inst.Net.Run(xs, o)
		for _, lt := range tr.Layers {
			links[lt.Layer] += float64(len(lt.Relevance))
			breaks[lt.Layer] += float64(len(lt.Breakpoints))
			for _, c := range lt.SkipCounts {
				skipSum[lt.Layer] += float64(c)
				skipUnits[lt.Layer]++
			}
		}
	}
	hidden := float64(e.Inst.Hidden)
	for l := range stats {
		if links[l] > 0 {
			stats[l].BreakRate = breaks[l] / links[l]
		}
		if skipUnits[l] > 0 {
			stats[l].SkipFrac = skipSum[l] / (skipUnits[l] * hidden)
		}
	}
	return stats
}

// runOptions maps a mode and thresholds to numeric execution options.
func (e *EngineOf[N]) runOptions(mode sched.Mode, alphaInter, alphaIntra float64) recurrent.RunOptions {
	opt := recurrent.RunOptions{}
	switch mode {
	case sched.Inter:
		opt.Inter, opt.AlphaInter = true, alphaInter
	case sched.Intra, sched.IntraSW:
		opt.Intra, opt.AlphaIntra = true, alphaIntra
	case sched.Combined:
		opt.Inter, opt.AlphaInter = true, alphaInter
		opt.Intra, opt.AlphaIntra = true, alphaIntra
	}
	if opt.Inter {
		opt.MTS = e.MTS
		opt.Predictors = e.Predictors
	}
	return opt
}

// Outcome is one evaluated execution point.
type Outcome struct {
	Mode       sched.Mode
	AlphaInter float64
	AlphaIntra float64

	Result *gpu.Result
	Energy energy.Breakdown
	// Accuracy is relative to the exact flow (1.0 = bit-identical
	// classifications).
	Accuracy float64
	// Speedup and EnergySaving are vs the baseline flow of the same
	// benchmark.
	Speedup      float64
	EnergySaving float64
	// Stats are the structural statistics the plan replayed.
	Stats []sched.LayerStats
	// PruneDensity is set for zero-pruning outcomes.
	PruneDensity float64
}

// Baseline evaluates (and caches) the unoptimized Algorithm 1 flow.
// Safe for concurrent use: serve workers share one engine per benchmark
// and all race to fill the cache on their first request.
func (e *EngineOf[N]) Baseline() *Outcome {
	e.baselineOnce.Do(func() {
		res := e.sim.Run(sched.Kernels(e.plan(sched.Baseline, nil, 0)))
		e.baseline = &Outcome{
			Mode:     sched.Baseline,
			Result:   res,
			Energy:   energy.Of(e.EnergyP, res, false),
			Accuracy: 1,
			Speedup:  1,
		}
	})
	return e.baseline
}

// Evaluate measures one mode at the given thresholds: numeric accuracy
// and structure at the profile shape, timing and energy at the full
// Table II shape.
func (e *EngineOf[N]) Evaluate(mode sched.Mode, alphaInter, alphaIntra float64) *Outcome {
	base := e.Baseline()
	if mode == sched.Baseline {
		return base
	}
	stats := e.Structure(mode, alphaInter, alphaIntra)
	res := e.simulate(mode, stats, 0)
	out := &Outcome{
		Mode:       mode,
		AlphaInter: alphaInter,
		AlphaIntra: alphaIntra,
		Result:     res,
		Energy:     energy.Of(e.EnergyP, res, mode == sched.Intra || mode == sched.Combined),
		Stats:      stats,
	}
	seqs, refs := e.Inst.AccSeqs()
	out.Accuracy = accuracy.Score(e.Inst.Net, seqs, refs, e.runOptions(mode, alphaInter, alphaIntra))
	out.Speedup = base.Result.Cycles / res.Cycles
	out.EnergySaving = energy.Saving(base.Energy, out.Energy)
	return out
}

// EvaluateSet evaluates a mode at threshold set i (0..10); an
// out-of-range set evaluates the nearest valid one.
func (e *EngineOf[N]) EvaluateSet(mode sched.Mode, set int) *Outcome {
	set = thresholds.ClampSet(set)
	if set == 0 {
		return e.Baseline()
	}
	ai, aa := e.Thresholds(set)
	return e.Evaluate(mode, ai, aa)
}

// EvaluateSetE is the serving-path entry point of EvaluateSet: any
// tensor.Panicf invariant violation raised during the evaluation comes
// back as an error instead of crashing the worker's process.
func (e *EngineOf[N]) EvaluateSetE(mode sched.Mode, set int) (out *Outcome, err error) {
	defer tensor.Guard(&err)
	return e.EvaluateSet(mode, set), nil
}

// Sweep evaluates a mode at every threshold set and returns the
// outcomes indexed by set, EvaluateSet's bit for bit. The sets run one
// after another: each set's scoring already fills the workers
// (accuracy.Score over tensor.ParallelBatches), and on a two-core box
// running the eleven sets concurrently measured no faster. It is the
// one threshold sweep of the module: the AutoSet resolution of the
// serving tier, the facade's curves and the sweep CLIs.
func (e *EngineOf[N]) Sweep(mode sched.Mode) []*Outcome {
	outs := make([]*Outcome, ThresholdSets)
	for set := range outs {
		outs[set] = e.EvaluateSet(mode, set)
	}
	return outs
}

// SweepE is the serving-path entry point of Sweep: a tensor.Panicf
// violation in any set's evaluation comes back as an error.
func (e *EngineOf[N]) SweepE(mode sched.Mode) (outs []*Outcome, err error) {
	defer tensor.Guard(&err)
	return e.Sweep(mode), nil
}

// RunOptionsFor exposes the numeric execution options of one (mode,
// threshold set) operating point, so external request loops (the serve
// worker pool) can run per-request inference with the engine's
// calibration artifacts without re-deriving MTS and predictors.
func (e *EngineOf[N]) RunOptionsFor(mode sched.Mode, set int) recurrent.RunOptions {
	ai, aa := e.Thresholds(set)
	return e.runOptions(mode, ai, aa)
}

// EvaluateZeroPrune evaluates the element-pruning baseline [31] at the
// given surviving density: accuracy from a pruned clone of the network,
// timing from the CSR gemv kernel model. The pruned clone is an LSTM's:
// a GRU engine panics.
func (e *EngineOf[N]) EvaluateZeroPrune(density float64) *Outcome {
	net, ok := any(e.Inst.Net).(*lstm.Network)
	if !ok {
		tensor.Panicf("core: zero-pruning is modelled for the LSTM only")
	}
	base := e.Baseline()
	pruned := prunedNetwork(net, density)
	plan := e.plan(sched.ZeroPrune, nil, density)
	res := e.sim.Run(sched.Kernels(plan))
	out := &Outcome{
		Mode:         sched.ZeroPrune,
		Result:       res,
		Energy:       energy.Of(e.EnergyP, res, false),
		PruneDensity: density,
	}
	seqs, refs := e.Inst.AccSeqs()
	out.Accuracy = accuracy.Score(pruned, seqs, refs, lstm.Baseline())
	out.Speedup = base.Result.Cycles / res.Cycles
	out.EnergySaving = energy.Saving(base.Energy, out.Energy)
	return out
}

// prunedNetwork clones src with its recurrent matrices magnitude-pruned
// to the target density.
func prunedNetwork(src *lstm.Network, density float64) *lstm.Network {
	dst := lstm.NewNetwork(src.Input(), src.Hidden(), len(src.Layers), src.Classes())
	dst.Gate = src.Gate
	copyM := func(d, s *tensor.Matrix) { copy(d.Data, s.Data) }
	for i, sl := range src.Layers {
		dl := dst.Layers[i]
		copyM(dl.Wf, sl.Wf)
		copyM(dl.Wi, sl.Wi)
		copyM(dl.Wc, sl.Wc)
		copyM(dl.Wo, sl.Wo)
		eps := intracell.PruneEpsForDensity(sl.UMatrices(), density)
		for g, u := range sl.UMatrices() {
			p, _ := intracell.PruneMatrix(u, eps)
			copyM(dl.UMatrices()[g], p)
		}
		copy(dl.Bf, sl.Bf)
		copy(dl.Bi, sl.Bi)
		copy(dl.Bc, sl.Bc)
		copy(dl.Bo, sl.Bo)
	}
	copyM(dst.Head, src.Head)
	copy(dst.HeadBias, src.HeadBias)
	return dst
}

// simulate runs the full-shape plan on the GPU model. Modes whose tissue
// layout is synthesized from break rates are averaged over several
// synthesis seeds: at low break rates the longest-sub-layer tail makes a
// single draw noisy.
func (e *EngineOf[N]) simulate(mode sched.Mode, stats []sched.LayerStats, density float64) *gpu.Result {
	const replicas = 5
	if mode != sched.Inter && mode != sched.Combined {
		return e.sim.Run(sched.Kernels(e.plan(mode, stats, density)))
	}
	results := make([]*gpu.Result, 0, replicas)
	for i := 0; i < replicas; i++ {
		p := e.plan(mode, stats, density)
		p.Seed += uint64(i) * 0x9e37
		results = append(results, e.sim.Run(sched.Kernels(p)))
	}
	return averageResults(results)
}

// averageResults merges simulation replicas into their mean. Per-kernel
// groups come from the first replica scaled to the mean cycle count;
// totals are arithmetic means.
func averageResults(rs []*gpu.Result) *gpu.Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := rs[0]
	n := float64(len(rs))
	var cycles, flops, dram, l2, shared float64
	launches := 0
	stalls := out.Stalls // copy of the array; accumulate the rest below
	for _, r := range rs[1:] {
		cycles += r.Cycles
		flops += r.FLOPs
		dram += r.DRAMBytes
		l2 += r.L2HitBytes
		shared += r.SharedBytes
		launches += r.Launches
		for c, v := range r.Stalls {
			stalls[c] += v
		}
	}
	out.Cycles = (out.Cycles + cycles) / n
	out.Seconds = out.Cfg.CyclesToSeconds(out.Cycles)
	out.FLOPs = (out.FLOPs + flops) / n
	out.DRAMBytes = (out.DRAMBytes + dram) / n
	out.L2HitBytes = (out.L2HitBytes + l2) / n
	out.SharedBytes = (out.SharedBytes + shared) / n
	out.Launches = (out.Launches + launches) / len(rs)
	for c := range out.Stalls {
		out.Stalls[c] = stalls[c] / n
	}
	return out
}

// plan assembles the full-shape execution plan for a mode.
func (e *EngineOf[N]) plan(mode sched.Mode, stats []sched.LayerStats, density float64) sched.Plan {
	if stats == nil {
		stats = make([]sched.LayerStats, e.B.Layers)
	}
	return sched.Plan{
		Cfg:          e.Cfg,
		Mode:         mode,
		Hidden:       e.B.Hidden,
		Input:        e.B.Hidden,
		Length:       e.B.Length,
		Layers:       e.B.Layers,
		Cell:         e.Inst.Net.Shape(),
		MTS:          e.MTS,
		Stats:        stats,
		PruneDensity: density,
		Seed:         e.B.Seed ^ 0xfeed,
	}
}

// Curve maps a threshold sweep to its trade-off curve. The outcomes
// slice must be indexed by set (EvaluateSet results 0..10).
func Curve(outcomes []*Outcome) tradeoff.Curve {
	return CurveOf(outcomes, func(o *Outcome) (float64, float64, float64) {
		return o.Speedup, o.EnergySaving, o.Accuracy
	})
}

// CurveOf is the one mapping from a threshold sweep to its trade-off
// curve, for outcomes of any type: point reads an outcome's speedup,
// energy saving and accuracy, and outs is indexed by set. Curve and the
// root package's LSTM and GRU systems call it.
func CurveOf[O any](outs []O, point func(O) (speedup, energySaving, accuracy float64)) tradeoff.Curve {
	curve := make(tradeoff.Curve, len(outs))
	for i, o := range outs {
		sp, es, acc := point(o)
		curve[i] = tradeoff.Point{Set: i, Speedup: sp, EnergySaving: es, Accuracy: acc}
	}
	return curve
}

// AOSet returns the accuracy-oriented threshold set, tradeoff.Curve.AO
// of the sweep: the largest set whose accuracy loss stays within the
// user-imperceptible 2% (§VI-C). The outcomes slice is indexed as for
// Curve.
func AOSet(outcomes []*Outcome) int { return Curve(outcomes).AO() }

// MeanStats is the layer mean of Stats (zero for the baseline).
func (o *Outcome) MeanStats() sched.LayerStats {
	var m sched.LayerStats
	for _, st := range o.Stats {
		m.BreakRate += st.BreakRate / float64(len(o.Stats))
		m.SkipFrac += st.SkipFrac / float64(len(o.Stats))
	}
	return m
}

// String summarizes an outcome for logs.
func (o *Outcome) String() string {
	return fmt.Sprintf("%v: speedup %.2fx, energy saving %.1f%%, accuracy %.1f%%",
		o.Mode, o.Speedup, o.EnergySaving*100, o.Accuracy*100)
}
