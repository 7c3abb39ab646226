// Package mobilstm is a reproduction of "Towards Memory Friendly
// Long-Short Term Memory Networks (LSTMs) on Mobile GPUs" (MICRO 2018):
// a memory-friendly LSTM inference system that combines inter-cell layer
// re-organization (tissue parallelism over weak context links) with
// intra-cell Dynamic Row Skip, evaluated on a simulated Tegra-X1-class
// mobile GPU.
//
// The package is a facade over the internal implementation. Typical use:
//
//	sys, _ := mobilstm.Open("PTB", mobilstm.Options{})
//	outcome := sys.Evaluate(mobilstm.ModeCombined, 7)
//	fmt.Printf("%.2fx speedup at %.1f%% accuracy\n",
//	    outcome.Speedup, outcome.Accuracy*100)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package mobilstm

import (
	"fmt"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/thresholds"
	"mobilstm/internal/tradeoff"
)

// Mode selects an execution flow.
type Mode int

// Execution flows.
const (
	// ModeBaseline is the state-of-the-art cuDNN-style flow
	// (Algorithm 1 of the paper).
	ModeBaseline Mode = iota
	// ModeInter applies the inter-cell tissue optimization (§IV).
	ModeInter
	// ModeIntra applies hardware Dynamic Row Skip (§V).
	ModeIntra
	// ModeCombined applies both (the paper's overall system).
	ModeCombined
)

func (m Mode) internal() sched.Mode {
	switch m {
	case ModeInter:
		return sched.Inter
	case ModeIntra:
		return sched.Intra
	case ModeCombined:
		return sched.Combined
	default:
		return sched.Baseline
	}
}

// String names the mode.
func (m Mode) String() string { return m.internal().String() }

// Options configures a System.
type Options struct {
	// Full evaluates at the exact Table II shapes instead of the capped
	// quick profile (slower; identical timing model, more faithful
	// accuracy shapes).
	Full bool
}

// Benchmark describes one of the paper's Table II applications.
type Benchmark struct {
	Name    string
	Task    string
	Hidden  int
	Layers  int
	Length  int
	Classes int
}

// Benchmarks lists the six Table II applications.
func Benchmarks() []Benchmark {
	out := make([]Benchmark, 0, 6)
	for _, b := range model.Zoo() {
		out = append(out, Benchmark{
			Name: b.Name, Task: string(b.Task),
			Hidden: b.Hidden, Layers: b.Layers, Length: b.Length, Classes: b.Classes,
		})
	}
	return out
}

// Outcome is one evaluated operating point.
type Outcome struct {
	Mode Mode
	// Set is the threshold set (0 = exact baseline .. 10 = maximal).
	Set int
	// Speedup and EnergySaving are relative to the baseline flow on the
	// same benchmark.
	Speedup      float64
	EnergySaving float64
	// Accuracy is relative output accuracy (1 = exact).
	Accuracy float64
	// Milliseconds is the simulated end-to-end inference latency.
	Milliseconds float64
	// DRAMBytes is the simulated off-chip traffic.
	DRAMBytes float64
}

// System is a benchmark loaded on the simulated platform with the offline
// calibration (MTS, threshold limits, predicted links) done.
type System struct {
	engine *core.Engine
}

// Open builds the named Table II benchmark (see Benchmarks) on the
// simulated Tegra X1.
func Open(benchmark string, opts Options) (*System, error) {
	b, ok := model.ByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("mobilstm: unknown benchmark %q", benchmark)
	}
	prof := model.Quick()
	if opts.Full {
		prof = model.Full()
	}
	return &System{engine: core.NewEngine(b, prof, gpu.TegraX1())}, nil
}

// OpenCustom builds a benchmark with custom LSTM shapes, starting from a
// named zoo benchmark's task and generator settings. Zero fields keep the
// base benchmark's values. Use it to reproduce the paper's model-capacity
// study (Fig. 17) or to size your own workload.
func OpenCustom(base string, hidden, layers, length int, opts Options) (*System, error) {
	b, ok := model.ByName(base)
	if !ok {
		return nil, fmt.Errorf("mobilstm: unknown benchmark %q", base)
	}
	if hidden > 0 {
		b.Hidden = hidden
	}
	if layers > 0 {
		b.Layers = layers
	}
	if length > 0 {
		b.Length = length
	}
	b.Name = fmt.Sprintf("%s-%dx%dx%d", b.Name, b.Hidden, b.Layers, b.Length)
	// Mix in uint64: the Knuth multiplier exceeds 2^31, so int
	// arithmetic would overflow (and fail to compile) on 32-bit
	// platforms. Bit-identical to the old int math on 64-bit targets.
	b.Seed ^= uint64(b.Hidden)*2654435761 + uint64(b.Layers)*40503 + uint64(b.Length)
	prof := model.Quick()
	if opts.Full {
		prof = model.Full()
	}
	return &System{engine: core.NewEngine(b, prof, gpu.TegraX1())}, nil
}

// Name returns the benchmark name the system was opened with.
func (s *System) Name() string { return s.engine.B.Name }

// MTS returns the platform's maximum tissue size for this benchmark.
func (s *System) MTS() int { return s.engine.MTS }

// Evaluate measures one mode at threshold set 0..10. An out-of-range
// set evaluates, and reports, the nearest valid one.
func (s *System) Evaluate(mode Mode, set int) Outcome {
	set = thresholds.ClampSet(set)
	return outcome(mode, set, s.engine.EvaluateSet(mode.internal(), set))
}

// Curve sweeps all 11 threshold sets for a mode, the sets evaluated
// concurrently.
func (s *System) Curve(mode Mode) []Outcome {
	outs := s.engine.Sweep(mode.internal())
	curve := make([]Outcome, len(outs))
	for set, o := range outs {
		curve[set] = outcome(mode, set, o)
	}
	return curve
}

// outcome is the facade's view of the engine's outcome at a set.
func outcome(mode Mode, set int, o *core.Outcome) Outcome {
	return Outcome{
		Mode:         mode,
		Set:          set,
		Speedup:      o.Speedup,
		EnergySaving: o.EnergySaving,
		Accuracy:     o.Accuracy,
		Milliseconds: o.Result.Seconds * 1e3,
		DRAMBytes:    o.Result.DRAMBytes,
	}
}

// AO returns the accuracy-oriented operating point: the most aggressive
// threshold set whose accuracy loss stays within the user-imperceptible
// 2% (§VI-B).
func (s *System) AO(mode Mode) Outcome {
	curve := s.Curve(mode)
	return curve[curveOf(curve).AO()]
}

// BPA returns the best performance-accuracy point (argmax
// speedup x accuracy, §VI-C).
func (s *System) BPA(mode Mode) Outcome {
	curve := s.Curve(mode)
	return curve[curveOf(curve).BPA()]
}

// UO returns the user-oriented point for a user who demands the given
// accuracy (§VI-E).
func (s *System) UO(mode Mode, preferredAccuracy float64) Outcome {
	curve := s.Curve(mode)
	return curve[curveOf(curve).LargestWithAccuracy(preferredAccuracy)]
}

func curveOf(outs []Outcome) tradeoff.Curve {
	return core.CurveOf(outs, func(o Outcome) (float64, float64, float64) {
		return o.Speedup, o.EnergySaving, o.Accuracy
	})
}
