package main

import (
	"fmt"
	"runtime"
	"time"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/gru"
	"mobilstm/internal/intercell"
	"mobilstm/internal/intracell"
	"mobilstm/internal/kernels"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
)

// prober times single layers, one span per repetition under a common
// root, and reports the median.
type prober struct {
	tr   *tracer
	root int
}

// each runs fn reps times, inner calls per timed repetition, and returns
// the median time of one call. inner > 1 is for calls too short for one
// clock reading.
func (p prober) each(name string, reps, inner int, fn func()) time.Duration {
	times := make([]float64, reps)
	for i := range times {
		took := p.tr.timed(p.root, name, nil, func() {
			for j := 0; j < inner; j++ {
				fn()
			}
		})
		times[i] = float64(took) / float64(inner)
	}
	return time.Duration(median(times))
}

// mallocs is the heap allocation count of one fn call.
func mallocs(fn func()) float64 {
	const calls = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / calls
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

func gaussian(r *rng.RNG, n int) tensor.Vector {
	v := tensor.NewVector(n)
	for j := range v {
		v[j] = r.NormF32(0, 1)
	}
	return v
}

// layerProbes fills the lstm/gru/tensor/intercell/intracell/model/core/
// sched/kernels/gpu layer metrics: each layer called on its own, at the
// shapes of eng's benchmark, at the threshold set the serving tier would
// resolve for mode, on the workload's sequences. It returns that set.
// Probe data that is not a workload input (random matrices) comes from
// a fixed stream.
func layerProbes(pl map[string]float64, tr *tracer, eng *core.Engine, prof model.Profile,
	mode sched.Mode, seqs [][]tensor.Vector) (set int, err error) {
	defer tensor.Guard(&err)
	p := prober{tr: tr, root: tr.open(0, "probes", map[string]any{"bench": eng.B.Name})}
	defer tr.close(p.root)
	net, b, cfg := eng.Inst.Net, eng.B, eng.Cfg
	h := net.Hidden()
	r := rng.New(0x70726f6265) // "probe"
	if len(seqs) > 8 {
		seqs = seqs[:8]
	}

	// model, core: what Warm pays under AutoSet.
	pl["model.build_s"] = p.each("model.build", 1, 1, func() { model.Build(b, prof) }).Seconds()
	outs := make([]*core.Outcome, core.ThresholdSets)
	var evalMs []float64
	sweep := prober{tr: tr, root: tr.open(p.root, "core.ao_sweep", nil)}
	sweepStart := time.Now()
	for i := range outs {
		evalMs = append(evalMs, ms(sweep.each("core.evaluate_set", 1, 1, func() {
			outs[i], err = eng.EvaluateSetE(mode, i)
		})))
		if err != nil {
			return 0, fmt.Errorf("probe AO sweep: %w", err)
		}
	}
	pl["core.ao_sweep_s"] = time.Since(sweepStart).Seconds()
	tr.close(sweep.root)
	pl["core.evaluate_set_ms_p50"] = median(evalMs)
	set = core.AOSet(outs)

	// lstm: the serial and batched forward at the served thresholds.
	modes := []struct {
		name string
		opt  lstm.RunOptions
	}{
		{"baseline", lstm.Baseline()},
		{"inter", eng.RunOptionsFor(sched.Inter, set)},
		{"intra", eng.RunOptionsFor(sched.Intra, set)},
		{"combined", eng.RunOptionsFor(sched.Combined, set)},
	}
	next := 0
	nextSeq := func() []tensor.Vector { next++; return seqs[next%len(seqs)] }
	for _, m := range modes {
		pl["lstm.run_ms."+m.name] = ms(p.each("lstm.run."+m.name, 2*len(seqs), 1, func() { net.Run(nextSeq(), m.opt) }))
	}
	intra := modes[2].opt
	for _, B := range []int{1, 2, 4} {
		batch := make([][]tensor.Vector, B)
		for i := range batch {
			batch[i] = seqs[i%len(seqs)]
		}
		took := p.each(fmt.Sprintf("lstm.classify_batch.b%d", B), 7, 1, func() { _, _ = net.ClassifyBatchE(batch, intra) })
		pl[fmt.Sprintf("lstm.batch_ms_per_req.b%d", B)] = ms(took) / float64(B)
		if B == 4 {
			pl["lstm.batch_mallocs.b4"] = mallocs(func() { _, _ = net.ClassifyBatchE(batch, intra) })
		}
	}
	pl["lstm.run_mallocs.intra"] = mallocs(func() { net.Run(seqs[0], intra) })
	var cells, perCell float64
	for _, xs := range seqs {
		cells += float64(len(xs))
	}
	for _, l := range net.Layers {
		perCell += float64(l.UnitedWBytes() + l.UnitedUBytes())
	}
	pl["lstm.weight_bytes_per_req"] = perCell * cells / float64(len(seqs)) // computed, not measured
	var skipped, units, breaks, links, tissueCells, tissues float64
	for _, xs := range seqs {
		opt := modes[3].opt
		opt.Trace = &lstm.Trace{}
		net.Run(xs, opt)
		for _, lt := range opt.Trace.Layers {
			for _, c := range lt.SkipCounts {
				skipped += float64(c)
			}
			units += float64(len(lt.SkipCounts) * h)
			breaks += float64(len(lt.Breakpoints))
			links += float64(len(lt.Relevance))
			for _, size := range lt.TissueSizes {
				tissueCells += float64(size)
			}
			tissues += float64(len(lt.TissueSizes))
		}
	}
	pl["lstm.skip_share"] = ratio(skipped, units)
	pl["lstm.break_share"] = ratio(breaks, links)
	pl["lstm.tissue_mean_size"] = ratio(tissueCells, tissues)
	pl["lstm.check_sequence_us"] = us(p.each("lstm.check_sequence", 9, 100, func() { _ = net.CheckSequence(seqs[0]) }))
	pl["lstm.collect_predictors_ms"] = ms(p.each("lstm.collect_predictors", 3, 1, func() {
		lstm.CollectPredictors(net, eng.Inst.PredictorSeqs())
	}))

	// gru: a KWS-sized network, the shape BENCH_hotpath.json tracks.
	gnet := gru.NewNetwork(128, 128, 2, 8)
	gnet.InitRandom(r.Split(), nil, 0.5)
	gxs := make([]tensor.Vector, 60)
	for t := range gxs {
		gxs[t] = gaussian(r, 128)
	}
	_, aIntra := eng.Thresholds(set)
	pl["gru.run_ms.baseline"] = ms(p.each("gru.run.baseline", 9, 1, func() { gnet.Run(gxs, gru.Baseline()) }))
	pl["gru.run_ms.intra"] = ms(p.each("gru.run.intra", 9, 1, func() {
		gnet.Run(gxs, gru.RunOptions{Intra: true, AlphaIntra: aIntra})
	}))
	for _, B := range []int{1, 8} {
		batch := make([][]tensor.Vector, B)
		for i := range batch {
			batch[i] = gxs
		}
		took := p.each(fmt.Sprintf("gru.run_batch.b%d", B), 7, 1, func() { gnet.RunBatch(batch, gru.Baseline()) })
		pl[fmt.Sprintf("gru.batch_ms_per_req.b%d", B)] = ms(took) / float64(B)
	}

	// tensor: the united kernels at this network's shapes (U is 4h x h).
	united := tensor.NewMatrix(4*h, h)
	for i := range united.Data {
		united.Data[i] = r.NormF32(0, 1)
	}
	ufic := united.RowBlock(0, 3*h)
	x := gaussian(r, h)
	xs4 := []tensor.Vector{gaussian(r, h), gaussian(r, h), gaussian(r, h), gaussian(r, h)}
	xsLayer := make([]tensor.Vector, eng.Inst.Length)
	for t := range xsLayer {
		xsLayer[t] = gaussian(r, h)
	}
	gates := func(n int) []tensor.Vector {
		d := make([]tensor.Vector, n)
		for i := range d {
			d[i] = tensor.NewVector(h)
		}
		return d
	}
	d4, d3 := gates(4), gates(3)
	half := make([]bool, h)
	for j := range half {
		half[j] = j%2 == 0
	}
	dstLayer, dst4 := tensor.NewMatrix(len(xsLayer), 4*h), tensor.NewMatrix(4, 4*h)
	gemv := p.each("tensor.packed_gemv", 9, 20, func() { tensor.PackedGemv(d4, united, x) })
	pl["tensor.packed_gemv_ns"] = ns(gemv)
	pl["tensor.gemv_gbps"] = ratio(float64(united.SizeBytes()), ns(gemv)) // computed bytes / time
	pl["tensor.packed_gemv_rows_half_ns"] = ns(p.each("tensor.packed_gemv_rows", 9, 20, func() {
		tensor.PackedGemvRows(d3, ufic, x, half, 0)
	}))
	pl["tensor.packed_gemm_ns"] = ns(p.each("tensor.packed_gemm", 9, 1, func() { tensor.PackedGemm(dstLayer, united, xsLayer) }))
	pl["tensor.packed_gemm_rows_ns.b4"] = ns(p.each("tensor.packed_gemm_rows", 9, 5, func() {
		tensor.PackedGemmRows(dst4, united, xs4, nil, 0)
	}))
	pl["tensor.wide_packed_gemv_ns"] = ns(p.each("tensor.wide_packed_gemv", 9, 20, func() { tensor.WidePackedGemv(d4, united, x) }))
	pl["tensor.wide_packed_gemm_rows_ns.b4"] = ns(p.each("tensor.wide_packed_gemm_rows", 9, 5, func() {
		tensor.WidePackedGemmRows(dst4, united, xs4, nil, 0)
	}))

	// intercell, intracell: the per-cell decisions of the two optimizers.
	an := net.Layers[0].Analyzer()
	pl["intercell.relevance_ns"] = ns(p.each("intercell.relevance", 9, 20, func() { an.Relevance(d4[0], d4[1], d4[2], d4[3]) }))
	rel := make([]float64, eng.Inst.Length-1)
	for i := range rel {
		rel[i] = r.Float64()
	}
	pl["intercell.align_us"] = us(p.each("intercell.align", 9, 20, func() {
		subs := intercell.Sublayers(len(rel)+1, intercell.Breakpoints(rel, 0.5))
		intercell.AlignTissues(subs, eng.MTS)
	}))
	pl["intercell.find_mts_ms"] = ms(p.each("intercell.find_mts", 5, 1, func() { intercell.FindMTS(cfg, b.Hidden, 16) }))
	o := tensor.NewVector(h)
	for j := range o {
		o[j] = r.Float32()
	}
	pl["intracell.trivial_rows_ns"] = ns(p.each("intracell.trivial_rows", 9, 100, func() { intracell.TrivialRows(o, aIntra) }))

	// sched, kernels, gpu: the cost model at the Table II shape.
	aInter, _ := eng.Thresholds(set)
	plan := sched.Plan{
		Cfg: cfg, Mode: mode, Hidden: b.Hidden, Input: b.Hidden, Length: b.Length, Layers: b.Layers,
		MTS: eng.MTS, Stats: eng.Structure(mode, aInter, aIntra), Seed: b.Seed,
	}
	pl["sched.kernels_us"] = us(p.each("sched.kernels", 9, 1, func() { sched.Kernels(plan) }))
	kb, sim := kernels.NewBuilder(cfg), gpu.NewSimulator(cfg)
	var ks4, ksRagged []gpu.KernelSpec
	pl["kernels.request_batch_us.b4"] = us(p.each("kernels.request_batch", 9, 1, func() {
		ks4 = kb.RequestBatch(b.Hidden, b.Length, b.Layers, 4)
	}))
	pl["kernels.request_batch_ragged_us"] = us(p.each("kernels.request_batch_ragged", 9, 1, func() {
		ksRagged = kb.RequestBatchRagged(b.Hidden, b.Layers, []int{b.Length / 4, b.Length / 2, 3 * b.Length / 4, b.Length})
	}))
	pl["kernels.specs_per_request.b4"] = float64(len(ks4)) / 4
	run4 := p.each("gpu.sim_run", 9, 1, func() { sim.Run(ks4) })
	pl["gpu.sim_run_us.b4"] = us(run4)
	pl["gpu.sim_run_ragged_us"] = us(p.each("gpu.sim_run_ragged", 9, 1, func() { sim.Run(ksRagged) }))
	pl["gpu.kernel_specs_per_s"] = ratio(float64(len(ks4)), run4.Seconds())
	plan.Mode, plan.Stats = sched.Baseline, make([]sched.LayerStats, b.Layers)
	base := sim.Run(sched.Kernels(plan)) // simulated, so these three repeat exactly
	stall := base.StallFractions()
	pl["gpu.sim_dram_mb"] = base.DRAMBytes / 1e6
	pl["gpu.sim_l2_hit_share"] = ratio(base.L2HitBytes, base.L2HitBytes+base.DRAMBytes)
	pl["gpu.sim_mem_stall_share"] = stall[gpu.StallOffChip] + stall[gpu.StallOnChip]
	return set, nil
}
