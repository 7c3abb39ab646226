// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) from the reproduction's models: each exported method
// returns the same rows or series the paper reports, rendered through
// internal/report. The benchmark harness (bench_test.go) and the
// cmd/experiments CLI are thin wrappers over this package.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"mobilstm/internal/core"
	"mobilstm/internal/energy"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
	"mobilstm/internal/tradeoff"
)

// Config selects the platform and evaluation profile.
type Config struct {
	GPU     gpu.Config
	Profile model.Profile
	Energy  energy.Params
}

// DefaultConfig evaluates on the Tegra X1 with the profile selected by
// MOBILSTM_FULL.
func DefaultConfig() Config {
	return Config{GPU: gpu.TegraX1(), Profile: model.Default(), Energy: energy.TegraX1()}
}

// Suite caches engines and evaluated outcomes across experiments, since
// several figures share the same sweeps.
type Suite struct {
	cfg Config

	mu       sync.Mutex
	engines  map[string]*core.Engine
	outcomes map[outcomeKey]*core.Outcome
}

type outcomeKey struct {
	bench string
	mode  sched.Mode
	set   int
}

// NewSuite creates an experiment suite.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		cfg:      cfg,
		engines:  make(map[string]*core.Engine),
		outcomes: make(map[outcomeKey]*core.Outcome),
	}
}

// Lookup resolves a zoo benchmark by name, reporting an unknown name as
// an error that lists the valid ones. It is the single lookup used by
// every experiment entry point — and by the serve layer, whose workers
// must reject bad request names without panicking.
func Lookup(name string) (model.Benchmark, error) {
	b, ok := model.ByName(name)
	if !ok {
		return model.Benchmark{}, fmt.Errorf(
			"experiments: unknown benchmark %q (have %s)",
			name, strings.Join(BenchmarkNames(), ", "))
	}
	return b, nil
}

// mustLookup is Lookup for the panic-world experiment methods, whose
// callers pass compile-time benchmark names.
func mustLookup(name string) model.Benchmark {
	b, err := Lookup(name)
	if err != nil {
		tensor.Panicf("%v", err)
	}
	return b
}

// Engine returns (building and caching on first use) the engine for a zoo
// benchmark.
func (s *Suite) Engine(name string) *core.Engine {
	s.mu.Lock()
	e, ok := s.engines[name]
	s.mu.Unlock()
	if ok {
		return e
	}
	b := mustLookup(name)
	e = core.NewEngine(b, s.cfg.Profile, s.cfg.GPU)
	e.EnergyP = s.cfg.Energy
	s.mu.Lock()
	s.engines[name] = e
	s.mu.Unlock()
	return e
}

// Outcome returns (evaluating and caching on first use) a benchmark's
// outcome for one mode and threshold set.
func (s *Suite) Outcome(bench string, mode sched.Mode, set int) *core.Outcome {
	key := outcomeKey{bench, mode, set}
	s.mu.Lock()
	o, ok := s.outcomes[key]
	s.mu.Unlock()
	if ok {
		return o
	}
	e := s.Engine(bench)
	o = e.EvaluateSet(mode, set)
	s.mu.Lock()
	s.outcomes[key] = o
	s.mu.Unlock()
	return o
}

// Curve sweeps all threshold sets for one benchmark and mode.
func (s *Suite) Curve(bench string, mode sched.Mode) tradeoff.Curve {
	outs := make([]*core.Outcome, core.ThresholdSets)
	for set := range outs {
		outs[set] = s.Outcome(bench, mode, set)
	}
	return core.Curve(outs)
}

// AOOutcome returns the accuracy-oriented outcome for one benchmark and
// mode: the most aggressive threshold set whose loss stays within the
// user-imperceptible 2% (§VI-B fixes the requirement at 98%).
func (s *Suite) AOOutcome(bench string, mode sched.Mode) *core.Outcome {
	curve := s.Curve(bench, mode)
	return s.Outcome(bench, mode, curve.AO())
}

// BenchmarkNames lists the Table II applications in paper order.
func BenchmarkNames() []string {
	names := make([]string, 0, 6)
	for _, b := range model.Zoo() {
		names = append(names, b.Name)
	}
	return names
}
