package mobilstm

import (
	"fmt"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/thresholds"
)

// GRUBenchmark describes one of the built-in GRU workloads (§II-B
// extension: the paper's optimizations applied to GRUs).
type GRUBenchmark struct {
	Name    string
	Hidden  int
	Layers  int
	Length  int
	Classes int
}

// GRUBenchmarks lists the built-in GRU workloads.
func GRUBenchmarks() []GRUBenchmark {
	out := make([]GRUBenchmark, 0, 3)
	for _, b := range model.GRUZoo() {
		out = append(out, GRUBenchmark{
			Name: b.Name, Hidden: b.Hidden, Layers: b.Layers,
			Length: b.Length, Classes: b.Classes,
		})
	}
	return out
}

// GRUSystem is a GRU benchmark loaded on the simulated platform with the
// paper's optimizations adjusted for the GRU cell: tissue parallelism
// over weak context links, and carry-based Dynamic Row Skip on the
// candidate matrix. It runs on the LSTM's engine, calibration and
// lowering.
type GRUSystem struct {
	engine *core.GRUEngine
}

// OpenGRU builds the named GRU benchmark (see GRUBenchmarks) on the
// simulated Tegra X1.
func OpenGRU(benchmark string) (*GRUSystem, error) {
	b, ok := model.GRUByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("mobilstm: unknown GRU benchmark %q", benchmark)
	}
	return &GRUSystem{engine: core.NewGRUEngine(b, model.GRUQuick(), gpu.TegraX1())}, nil
}

// Name returns the benchmark name.
func (s *GRUSystem) Name() string { return s.engine.B.Name }

// MTS returns the platform's maximum tissue size for this GRU benchmark.
func (s *GRUSystem) MTS() int { return s.engine.MTS }

// GRUOutcome is one evaluated GRU operating point.
type GRUOutcome struct {
	Set      int
	Speedup  float64
	Accuracy float64
	// SkipFraction is the share of candidate (U_h) rows carry-skipped,
	// averaged over the layers.
	SkipFraction float64
	// BreakRate is the fraction of context links cut, averaged over the
	// layers.
	BreakRate float64
}

// Evaluate measures the combined adjusted optimizations at threshold set
// 0..10. An out-of-range set evaluates, and reports, the nearest valid
// one.
func (s *GRUSystem) Evaluate(set int) GRUOutcome {
	set = thresholds.ClampSet(set)
	return gruOutcome(set, s.engine.EvaluateSet(sched.Combined, set))
}

// AO returns the accuracy-oriented GRU operating point: the point at
// tradeoff.Curve.AO of its threshold sweep, the same rule as the LSTM
// System.AO.
func (s *GRUSystem) AO() GRUOutcome {
	outs := s.engine.Sweep(sched.Combined)
	set := core.CurveOf(outs, func(o *core.Outcome) (float64, float64, float64) {
		return o.Speedup, 0, o.Accuracy
	}).AO()
	return gruOutcome(set, outs[set])
}

// gruOutcome is the facade's view of the engine's outcome at a set.
func gruOutcome(set int, o *core.Outcome) GRUOutcome {
	st := o.MeanStats()
	return GRUOutcome{
		Set: set, Speedup: o.Speedup, Accuracy: o.Accuracy,
		SkipFraction: st.SkipFrac, BreakRate: st.BreakRate,
	}
}
