package gru

import (
	"sort"

	"mobilstm/internal/gpu"
	"mobilstm/internal/intercell"
	"mobilstm/internal/kernels"
	"mobilstm/internal/rng"
	"mobilstm/internal/stats"
	"mobilstm/internal/tensor"
	"mobilstm/internal/thresholds"
)

// Benchmark describes a GRU workload; the zoo mirrors representative
// mobile GRU deployments (GRUs are the lighter RNN of choice on phones).
type Benchmark struct {
	Name                            string
	Hidden, Layers, Length, Classes int
	PauseRate, CarryFrac            float64
	Seed                            uint64
}

// Zoo returns the built-in GRU benchmarks: a keyword-spotting-sized
// model, a BABI-shaped QA model and an MT-shaped translation model.
func Zoo() []Benchmark {
	return []Benchmark{
		{Name: "KWS-GRU", Hidden: 128, Layers: 2, Length: 60, Classes: 8,
			PauseRate: 0.35, CarryFrac: 0.5, Seed: 0x9a01},
		{Name: "QA-GRU", Hidden: 256, Layers: 3, Length: 86, Classes: 12,
			PauseRate: 0.4, CarryFrac: 0.5, Seed: 0x9b02},
		{Name: "MT-GRU", Hidden: 500, Layers: 4, Length: 50, Classes: 12,
			PauseRate: 0.28, CarryFrac: 0.52, Seed: 0x9c03},
	}
}

// ZooByName looks up a GRU benchmark.
func ZooByName(name string) (Benchmark, bool) {
	for _, b := range Zoo() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Engine evaluates the adjusted optimizations on one GRU benchmark —
// the GRU counterpart of core.Engine, kept deliberately lean.
type Engine struct {
	B   Benchmark
	Cfg gpu.Config

	Net        *Network
	Seqs       [][]tensor.Vector
	RefLabels  []int
	Predictors []intercell.Predictor
	MTS        int

	relDist []float64
	sim     *gpu.Simulator
	baseCyc float64 // baseline cycles, fixed by NewEngine
}

// EngineProfile bounds the numeric shapes (mirrors model.Profile).
type EngineProfile struct {
	HiddenCap, LengthCap int
	AccSamples           int
	StatSamples          int
}

// QuickProfile is the default evaluation profile.
func QuickProfile() EngineProfile {
	return EngineProfile{HiddenCap: 128, LengthCap: 40, AccSamples: 30, StatSamples: 3}
}

// NewEngine builds the benchmark: synthetic calibrated network, corpus,
// Eq. 6 predictors and platform MTS.
func NewEngine(b Benchmark, p EngineProfile, cfg gpu.Config) *Engine {
	h := capInt(b.Hidden, p.HiddenCap)
	length := capInt(b.Length, p.LengthCap)
	r := rng.New(b.Seed)

	net := NewNetwork(h, h, b.Layers, b.Classes)
	net.InitRandom(r.Split(), func(l int) float64 { return 1 + 0.15*float64(l) }, b.CarryFrac)
	calGen := r.Split()
	cal := make([][]tensor.Vector, 3)
	for i := range cal {
		cal[i] = genSeq(calGen, h, length, b.PauseRate)
	}
	Calibrate(net, cal, func(l int) float64 { return 1.2 + 0.4*float64(l) })

	e := &Engine{B: b, Cfg: cfg, Net: net, sim: gpu.NewSimulator(cfg)}
	e.MTS = gruMTS(cfg, b.Hidden)
	gen := r.Split()

	// Noise-calibrated margin floor, mirroring the LSTM corpus builder:
	// keep samples whose decision margin exceeds the measured logit
	// perturbation at a mid-sweep reference point.
	minMargin := e.referenceMargin(gen, h, length)

	total := p.AccSamples + p.StatSamples
	for len(e.Seqs) < total {
		xs := genSeq(gen, h, length, b.PauseRate)
		logits := net.Run(xs, Baseline())
		best := tensor.ArgMax(logits)
		margin := float32(1e9)
		for j, v := range logits {
			if j != best && logits[best]-v < margin {
				margin = logits[best] - v
			}
		}
		//lint:ignore float64leak float32-to-float64 widening is exact; this margin filter is corpus acceptance, not a DRS threshold compare
		if float64(margin) < minMargin {
			continue
		}
		e.Seqs = append(e.Seqs, xs)
		e.RefLabels = append(e.RefLabels, best)
	}
	e.Predictors = CollectPredictors(net, e.Seqs[p.AccSamples:])
	e.collectRelevance(p.AccSamples)
	e.baseCyc = e.simulate(0, 0)
	return e
}

// referenceMargin measures the benchmark's margin floor: 1.7x the median
// logit perturbation of the combined adjusted flow at its reference
// point, capped at the 90th percentile of raw margins so acceptance
// never collapses.
func (e *Engine) referenceMargin(gen *rng.RNG, h, length int) float64 {
	const probeN = 16
	probes := make([][]tensor.Vector, probeN)
	margins := make([]float64, probeN)
	for i := range probes {
		probes[i] = genSeq(gen, h, length, e.B.PauseRate)
		logits := e.Net.Run(probes[i], Baseline())
		best := tensor.ArgMax(logits)
		m := float32(1e18)
		for j, v := range logits {
			if j != best && logits[best]-v < m {
				m = logits[best] - v
			}
		}
		margins[i] = float64(m)
	}
	preds := CollectPredictors(e.Net, probes[:1])
	tr := &Trace{}
	e.Net.Run(probes[0], RunOptions{Inter: true, MTS: e.MTS, Predictors: preds, Trace: tr})
	var rels []float64
	for _, lt := range tr.Layers {
		rels = append(rels, lt.Relevance...)
	}
	var alpha float64
	if len(rels) > 0 {
		alpha = stats.QuantileOf(rels, thresholds.GRUCalibInterQuantile)
	}
	opt := RunOptions{Inter: true, AlphaInter: alpha, MTS: e.MTS, Predictors: preds,
		Intra: true, AlphaIntra: thresholds.GRUCalibAlphaIntra}
	dists := make([]float64, 0, 8)
	for _, xs := range probes[:8] {
		base := e.Net.Run(xs, Baseline())
		approx := e.Net.Run(xs, opt)
		// The max-|diff| scan stays in float32 — the pipeline's native
		// precision — and widens only at the stats boundary.
		var d float32
		for j := range base {
			v := base[j] - approx[j]
			if v < 0 {
				v = -v
			}
			if v > d {
				d = v
			}
		}
		dists = append(dists, float64(d))
	}
	noise := stats.Median(dists)
	minMargin := 1.7 * noise
	if cap := stats.QuantileOf(margins, 0.9); minMargin > cap {
		minMargin = cap
	}
	return minMargin
}

func capInt(v, c int) int {
	if c > 0 && v > c {
		return c
	}
	return v
}

func genSeq(r *rng.RNG, dim, length int, pauseRate float64) []tensor.Vector {
	xs := make([]tensor.Vector, length)
	for t := range xs {
		v := tensor.NewVector(dim)
		scale := 1.0
		if r.Bernoulli(pauseRate) {
			u := r.Float64()
			scale = 1.2 + 5*u*u
		}
		for j := range v {
			v[j] = r.NormF32(0, scale)
		}
		xs[t] = v
	}
	return xs
}

// gruMTS finds the GRU tissue bound on this platform.
func gruMTS(cfg gpu.Config, hidden int) int {
	kb := kernels.NewBuilder(cfg)
	mts := 1
	for t := 1; t <= 16; t++ {
		if _, re := kb.GRUSgemmTissue(hidden, t); re {
			break
		}
		mts = t
	}
	return mts
}

func (e *Engine) collectRelevance(accSamples int) {
	for _, xs := range e.Seqs[accSamples:] {
		tr := &Trace{}
		e.Net.Run(xs, RunOptions{Inter: true, MTS: e.MTS, Predictors: e.Predictors, Trace: tr})
		for _, lt := range tr.Layers {
			e.relDist = append(e.relDist, lt.Relevance...)
		}
	}
	sort.Float64s(e.relDist)
}

// Thresholds maps set 0..10 to (alpha_inter, alpha_intra), walking the
// relevance quantiles like the LSTM engine. Out-of-range sets clamp.
func (e *Engine) Thresholds(set int) (float64, float64) {
	set = thresholds.ClampSet(set)
	f := float64(set) / (thresholds.Sets - 1)
	alphaIntra := thresholds.AlphaIntraMax * f
	if set == 0 || len(e.relDist) == 0 {
		return 0, alphaIntra
	}
	// The GRU division walk is shallower than the LSTM's (30th
	// percentile at set 10): carry-dominated units give GRU layers
	// fewer genuinely weak links, so the extension leans on DRS.
	return stats.Quantile(e.relDist, f*thresholds.GRUQuantileDepth) * thresholds.TieBreakUp, alphaIntra
}

// Outcome is one evaluated GRU operating point.
type Outcome struct {
	Set               int
	Speedup, Accuracy float64
	SkipFrac          float64
	BreakRate         float64
}

// Evaluate measures the combined adjusted optimizations at one set; an
// out-of-range set evaluates, and reports, the nearest valid one. Safe
// for concurrent use.
func (e *Engine) Evaluate(set int) Outcome {
	set = thresholds.ClampSet(set)
	if set == 0 {
		return Outcome{Set: 0, Speedup: 1, Accuracy: 1}
	}
	ai, aa := e.Thresholds(set)
	opt := RunOptions{
		Inter: true, AlphaInter: ai, MTS: e.MTS, Predictors: e.Predictors,
		Intra: true, AlphaIntra: aa,
	}
	// Structural stats + accuracy from the numeric pipeline.
	var links, breaks, skipSum, skipUnits float64
	match := 0
	for i, xs := range e.Seqs {
		o := opt
		tr := &Trace{}
		o.Trace = tr
		if e.Net.Classify(xs, o) == e.RefLabels[i] {
			match++
		}
		for _, lt := range tr.Layers {
			links += float64(len(lt.Relevance))
			breaks += float64(len(lt.Breakpoints))
			for _, c := range lt.SkipCounts {
				skipSum += float64(c)
				skipUnits++
			}
		}
	}
	out := Outcome{
		Set:      set,
		Accuracy: float64(match) / float64(len(e.Seqs)),
	}
	if links > 0 {
		out.BreakRate = breaks / links
	}
	if skipUnits > 0 {
		out.SkipFrac = skipSum / (skipUnits * float64(e.Net.Layers[0].Hidden))
	}
	out.Speedup = e.baseCyc / e.simulate(out.BreakRate, out.SkipFrac)
	return out
}

// simulate lowers the GRU flow at the given structural rates to kernels
// on the full benchmark shape and returns cycles.
func (e *Engine) simulate(breakRate, skipFrac float64) float64 {
	kb := kernels.NewBuilder(e.Cfg)
	r := rng.New(e.B.Seed ^ 0x6a)
	var ks []gpu.KernelSpec
	h := e.B.Hidden
	for layer := 0; layer < e.B.Layers; layer++ {
		ks = append(ks, kb.GRUSgemmWx(h, h, e.B.Length))
		if breakRate == 0 && skipFrac == 0 {
			for c := 0; c < e.B.Length; c++ {
				ks = append(ks, kb.GRUSgemvU(h), kb.GRUEW(h, 1))
			}
			continue
		}
		var bps []int
		for t := 1; t < e.B.Length; t++ {
			if r.Bernoulli(breakRate) {
				bps = append(bps, t)
			}
		}
		subs := intercell.Sublayers(e.B.Length, bps)
		tissues := intercell.AlignTissues(subs, e.MTS)
		skip := int(skipFrac * float64(h))
		for _, tis := range tissues {
			k, _ := kb.GRUSgemmTissue(h, len(tis))
			// Split flow: z,r first, then the skipped candidate gemm.
			// Model as the united tissue gemm for the z,r share plus
			// the skipped U_h portion.
			zr := k
			zr.FLOPs *= 2.0 / 3
			zr.DRAMBytes *= 2.0 / 3
			zr.SharedBytes *= 2.0 / 3
			uh := k
			live := 1 - float64(skip)/float64(h)
			uh.FLOPs *= live / 3
			uh.DRAMBytes *= live / 3
			uh.SharedBytes *= live / 3
			uh.ExtraCycles += kb.CRM().Reorganize(h, skip)
			ks = append(ks, zr, kb.GRUDRS(h, skip), uh, kb.GRUEW(h, len(tis)))
		}
	}
	return e.sim.Run(ks).Cycles
}
