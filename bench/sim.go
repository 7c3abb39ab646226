package main

import (
	"fmt"
	"math"
	"time"

	"mobilstm"
	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/thresholds"
)

// simSpec is the research workload: which systems the facade opens and
// which threshold sets are swept on each.
type simSpec struct {
	name string
	lstm []string
	gru  []string
	sets []int // ascending, starting at 0
	// profile of the engine the layer probes build (the facade's own
	// engines are private, and always quick-profile).
	profile model.Profile
}

var simSweep = simSpec{
	name: "sim_sweep",
	lstm: []string{"MR", "BABI", "PTB"},
	gru:  []string{"KWS-GRU", "QA-GRU"},
	sets: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},

	profile: model.Quick(),
}

var lstmModes = []mobilstm.Mode{
	mobilstm.ModeBaseline, mobilstm.ModeInter, mobilstm.ModeIntra, mobilstm.ModeCombined,
}

// point is one operating point to evaluate: system sys (LSTM systems
// first, then GRU), a mode (LSTM only) and a threshold set.
type point struct {
	sys  int
	mode mobilstm.Mode
	set  int
}

// outcome is what a point evaluated to, LSTM or GRU.
type outcome struct {
	speedup, energySaving, accuracy float64
	ms                              float64 // host time of the call
}

// aoOf is the accuracy-oriented point of a curve indexed like sets: the
// most aggressive set whose accuracy loss stays user-imperceptible.
func aoOf(curve []outcome) outcome {
	ao := curve[0]
	for _, o := range curve[1:] {
		if o.accuracy >= thresholds.UserAccuracyFloor {
			ao = o
		}
	}
	return ao
}

// suspectOver marks a point for a second evaluation: the points of one
// curve cost about the same, and interference on a shared box only ever
// adds time, so a point this far over its curve's median is evaluated
// again and the shorter time kept. A point that is slow by itself stays
// slow.
const suspectOver = 1.1

// runSim opens the systems (set-up), then evaluates every operating
// point curve by curve, as Curve does. The sweep is fixed work, so
// -seconds does not shorten it, and it has no generated input for -seed
// to draw.
func runSim(spec simSpec, p params) (*result, error) {
	res := &result{workload: spec.name, endToEnd: make(map[string]float64)}

	setupSpan := p.tracer.open(0, "setup", map[string]any{"workload": spec.name})
	t0 := time.Now()
	lstms := make([]*mobilstm.System, len(spec.lstm))
	grus := make([]*mobilstm.GRUSystem, len(spec.gru))
	for i, name := range spec.lstm {
		var err error
		p.tracer.timed(setupSpan, "mobilstm.open", map[string]any{"bench": name}, func() {
			lstms[i], err = mobilstm.Open(name, mobilstm.Options{})
		})
		if err != nil {
			return nil, err
		}
	}
	for i, name := range spec.gru {
		var err error
		p.tracer.timed(setupSpan, "mobilstm.open_gru", map[string]any{"bench": name}, func() {
			grus[i], err = mobilstm.OpenGRU(name)
		})
		if err != nil {
			return nil, err
		}
	}
	res.endToEnd["setup_s"] = time.Since(t0).Seconds()
	p.tracer.close(setupSpan)

	var points []point
	for s := range lstms {
		for _, mode := range lstmModes {
			for _, set := range spec.sets {
				points = append(points, point{s, mode, set})
			}
		}
	}
	for g := range grus {
		for _, set := range spec.sets {
			points = append(points, point{sys: len(lstms) + g, set: set})
		}
	}
	evaluate := func(pt point) outcome {
		t := time.Now()
		var out outcome
		if pt.sys < len(lstms) {
			o := lstms[pt.sys].Evaluate(pt.mode, pt.set)
			out = outcome{speedup: o.Speedup, energySaving: o.EnergySaving, accuracy: o.Accuracy}
		} else {
			o := grus[pt.sys-len(lstms)].Evaluate(pt.set)
			out = outcome{speedup: o.Speedup, accuracy: o.Accuracy}
		}
		out.ms = time.Since(t).Seconds() * 1e3
		return out
	}

	got := make(map[point]outcome, len(points))
	inSpec := 0
	for _, pt := range points {
		out := evaluate(pt)
		got[pt] = out
		// Correctness: finite results, and set 0 is the exact flow.
		ok := out.speedup > 0 && !math.IsInf(out.speedup, 0) && out.accuracy >= 0 && out.accuracy <= 1
		if pt.set == 0 {
			ok = ok && out.speedup == 1 && out.accuracy == 1
		}
		if ok {
			inSpec++
		} else {
			res.failed++
		}
	}
	res.attempted = len(points)
	if res.failed > 0 {
		res.problemf("%d of %d operating points out of range, or set 0 not exact", res.failed, len(points))
	}
	// points lists each curve's sets contiguously.
	for lo := 0; lo < len(points); lo += len(spec.sets) {
		pts := points[lo+1 : lo+len(spec.sets)] // set 0 is a cached constant
		var ms []float64
		for _, pt := range pts {
			ms = append(ms, got[pt].ms)
		}
		limit := suspectOver * median(ms)
		for _, pt := range pts {
			if first := got[pt]; first.ms > limit {
				first.ms = math.Min(first.ms, evaluate(pt).ms)
				got[pt] = first
				res.remeasured++
			}
		}
	}
	// The latency percentiles leave out the points answered from the
	// cached baseline (set 0, Baseline mode): they take microseconds, and
	// with them the median sits on the gap between two systems.
	var callMs []float64
	var spanS float64
	for _, pt := range points {
		spanS += got[pt].ms / 1e3
		if pt.set > 0 && (pt.sys >= len(lstms) || pt.mode != mobilstm.ModeBaseline) {
			callMs = append(callMs, got[pt].ms)
		}
	}

	// The paper's headline: Combined-mode AO speed-up and energy saving
	// over the LSTM systems; accuracy is the worst AO point of any curve.
	curve := func(sys int, mode mobilstm.Mode) []outcome {
		c := make([]outcome, len(spec.sets))
		for i, set := range spec.sets {
			c[i] = got[point{sys, mode, set}]
		}
		return c
	}
	var speedups, savings []float64
	minAcc := math.Inf(1)
	for s := range lstms {
		for _, mode := range lstmModes {
			ao := aoOf(curve(s, mode))
			minAcc = math.Min(minAcc, ao.accuracy)
			if mode == mobilstm.ModeCombined {
				speedups = append(speedups, ao.speedup)
				savings = append(savings, ao.energySaving)
			}
		}
	}
	for g := range grus {
		minAcc = math.Min(minAcc, aoOf(curve(len(lstms)+g, 0)).accuracy)
	}
	e := res.endToEnd
	e["req_p50_ms"] = median(callMs)
	e["req_p95_ms"] = percentile(callMs, 0.95)
	e["throughput_rps"] = ratio(float64(inSpec), spanS)
	e["slo_ok_share"] = ratio(float64(inSpec), float64(len(points)))
	e["accuracy"] = minAcc
	e["sim_speedup_x"] = geomean(speedups)
	e["sim_energy_saving"] = mean(savings)
	e["sim_accuracy"] = minAcc

	if p.tracer == nil {
		return res, nil
	}
	// Traced pass: every tracedDivisor-th point again, one span each; the
	// overhead is per point, against the same point's untraced time.
	pass := p.tracer.open(0, "traced_pass", map[string]any{"workload": spec.name})
	var over []float64
	for n, pt := range points {
		if n%tracedDivisor != 0 {
			continue
		}
		var out outcome
		p.tracer.timed(pass, "mobilstm.evaluate", map[string]any{
			"sys": pt.sys, "mode": pt.mode.String(), "set": pt.set}, func() { out = evaluate(pt) })
		if base := got[pt].ms; base > 1 { // cached points take microseconds
			over = append(over, (out.ms-base)/base)
		}
	}
	p.tracer.close(pass)
	res.perLayer = newPerLayer()
	res.perLayer["trace.overhead_share"] = median(over)

	ptb, _ := model.ByName("PTB")
	t := time.Now()
	eng := core.NewEngine(ptb, spec.profile, gpu.TegraX1())
	res.perLayer["core.new_engine_s"] = time.Since(t).Seconds()
	seqs, _ := eng.Inst.AccSeqs()
	if _, err := layerProbes(res.perLayer, p.tracer, eng, spec.profile, sched.Combined, seqs); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	return res, nil
}
