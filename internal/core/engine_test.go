package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mobilstm/internal/gpu"
	"mobilstm/internal/gru"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
)

// tinyProfile keeps engine tests fast while exercising the full pipeline.
func tinyProfile() model.Profile {
	return model.Profile{Name: "tiny", HiddenCap: 64, LengthCap: 16,
		AccSamples: 10, PredictorSamples: 3, StatSamples: 2}
}

// tinyGRUProfile is tinyProfile's counterpart for the GRU rows.
func tinyGRUProfile() model.Profile {
	return model.Profile{Name: "tiny-gru", HiddenCap: 48, LengthCap: 16,
		AccSamples: 12, PredictorSamples: 2, StatSamples: 2}
}

var (
	engOnce, gruOnce sync.Once
	eng              *Engine
	gruEng           *GRUEngine
)

// testEngine builds one shared MR engine (cheapest benchmark).
func testEngine(t *testing.T) *Engine {
	t.Helper()
	engOnce.Do(func() {
		b, _ := model.ByName("MR")
		eng = NewEngine(b, tinyProfile(), gpu.TegraX1())
	})
	return eng
}

// newGRUEngine builds the KWS-GRU engine the GRU rows run on.
func newGRUEngine() *GRUEngine {
	b, _ := model.GRUByName("KWS-GRU")
	return NewGRUEngine(b, tinyGRUProfile(), gpu.TegraX1())
}

// testGRUEngine is the shared KWS-GRU engine.
func testGRUEngine(t *testing.T) *GRUEngine {
	t.Helper()
	gruOnce.Do(func() { gruEng = newGRUEngine() })
	return gruEng
}

// bothCells runs check as an MR (LSTM) and a KWS-GRU subtest.
func bothCells(t *testing.T, lstm func(*testing.T, *Engine), gru func(*testing.T, *GRUEngine)) {
	t.Run("MR", func(t *testing.T) { lstm(t, testEngine(t)) })
	t.Run("KWS-GRU", func(t *testing.T) { gru(t, testGRUEngine(t)) })
}

func TestOfflineCalibration(t *testing.T) {
	bothCells(t, offlineCalibration[*lstm.Network], offlineCalibration[*gru.Network])
}

func offlineCalibration[N Net](t *testing.T, e *EngineOf[N]) {
	if e.MTS < 2 || e.MTS > 10 {
		t.Fatalf("MTS %d out of plausible range", e.MTS)
	}
	if e.AlphaInterMax <= 0 {
		t.Fatal("alpha_inter upper limit not calibrated")
	}
	if len(e.Predictors) != e.B.Layers {
		t.Fatalf("%d predictors for %d layers", len(e.Predictors), e.B.Layers)
	}
}

func TestThresholdsMonotone(t *testing.T) {
	bothCells(t, thresholdsMonotone[*lstm.Network], thresholdsMonotone[*gru.Network])
}

func thresholdsMonotone[N Net](t *testing.T, e *EngineOf[N]) {
	prevI, prevA := -1.0, -1.0
	for set := 0; set < ThresholdSets; set++ {
		ai, aa := e.Thresholds(set)
		if ai < prevI || aa < prevA {
			t.Fatalf("thresholds not monotone at set %d: (%v,%v) after (%v,%v)", set, ai, aa, prevI, prevA)
		}
		prevI, prevA = ai, aa
	}
	if ai, aa := e.Thresholds(0); ai != 0 || aa != 0 {
		t.Fatalf("set 0 not the exact baseline: %v, %v", ai, aa)
	}
	// Clamping.
	loI, loA := e.Thresholds(-5)
	if loI != 0 || loA != 0 {
		t.Fatal("negative set not clamped")
	}
	hiI, _ := e.Thresholds(99)
	wantI, _ := e.Thresholds(10)
	if hiI != wantI {
		t.Fatal("overflow set not clamped")
	}
}

func TestBaselineCachedAndExact(t *testing.T) {
	bothCells(t, baselineCachedAndExact[*lstm.Network], baselineCachedAndExact[*gru.Network])
}

func baselineCachedAndExact[N Net](t *testing.T, e *EngineOf[N]) {
	b1 := e.Baseline()
	b2 := e.Baseline()
	if b1 != b2 {
		t.Fatal("baseline not cached")
	}
	if b1.Speedup != 1 || b1.Accuracy != 1 {
		t.Fatalf("baseline outcome: %+v", b1)
	}
	if b3 := e.EvaluateSet(sched.Combined, 0); b3 != b1 {
		t.Fatal("set 0 should return the baseline outcome")
	}
}

func TestEvaluateCombinedImproves(t *testing.T) {
	e := testEngine(t)
	o := e.EvaluateSet(sched.Combined, 10)
	if o.Speedup <= 1 {
		t.Fatalf("combined at max thresholds: speedup %v", o.Speedup)
	}
	if o.EnergySaving <= 0 {
		t.Fatalf("combined saving %v", o.EnergySaving)
	}
	if o.Accuracy < 0.5 {
		t.Fatalf("combined accuracy %v implausibly low", o.Accuracy)
	}
	if len(o.Stats) != e.B.Layers {
		t.Fatalf("stats per layer: %d", len(o.Stats))
	}
	t.Run("KWS-GRU", func(t *testing.T) {
		o := testGRUEngine(t).EvaluateSet(sched.Combined, 8)
		if o.Speedup <= 1 {
			t.Fatalf("no speedup at set 8: %v", o)
		}
		if o.Accuracy < 0.6 {
			t.Fatalf("accuracy collapsed: %v", o)
		}
		var skip float64
		for _, st := range o.Stats {
			skip += st.SkipFrac
		}
		if skip <= 0 {
			t.Fatal("no candidate rows skipped")
		}
	})
}

func TestInterStatsHaveNoSkips(t *testing.T) {
	e := testEngine(t)
	o := e.EvaluateSet(sched.Inter, 8)
	for _, st := range o.Stats {
		if st.SkipFrac != 0 {
			t.Fatal("inter-only mode reported skipped rows")
		}
	}
	o2 := e.EvaluateSet(sched.Intra, 8)
	for _, st := range o2.Stats {
		if st.BreakRate != 0 {
			t.Fatal("intra-only mode reported breakpoints")
		}
	}
}

func TestZeroPruneOutcome(t *testing.T) {
	e := testEngine(t)
	o := e.EvaluateZeroPrune(0.315)
	if o.Speedup >= 1 {
		t.Fatalf("zero-pruning should slow down (got %vx)", o.Speedup)
	}
	if o.PruneDensity != 0.315 {
		t.Fatalf("density: %v", o.PruneDensity)
	}
	// Fewer bytes moved than baseline despite being slower.
	if o.Result.DRAMBytes >= e.Baseline().Result.DRAMBytes {
		t.Fatal("pruning did not reduce traffic")
	}
}

// TestAOAndBPASelectors pins AOSet; BPA is tradeoff.Curve.BPA, whose
// case lives in tradeoff's tests.
func TestAOAndBPASelectors(t *testing.T) {
	outs := []*Outcome{
		{Speedup: 1.0, Accuracy: 1.0},
		{Speedup: 1.5, Accuracy: 0.99},
		{Speedup: 2.0, Accuracy: 0.97},
		{Speedup: 2.4, Accuracy: 0.90},
	}
	if ao := AOSet(outs); ao != 1 {
		t.Fatalf("AO = %d", ao)
	}
}

func TestOutcomeString(t *testing.T) {
	o := &Outcome{Mode: sched.Combined, Speedup: 2.5, EnergySaving: 0.47, Accuracy: 0.98}
	if s := o.String(); s == "" {
		t.Fatal("empty outcome string")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	e := testEngine(t)
	a := e.EvaluateSet(sched.Combined, 6)
	b := e.EvaluateSet(sched.Combined, 6)
	if a.Speedup != b.Speedup || a.Accuracy != b.Accuracy {
		t.Fatalf("evaluation not deterministic: %+v vs %+v", a, b)
	}
	t.Run("KWS-GRU", func(t *testing.T) {
		// Two builds of the same benchmark evaluate identically.
		a := testGRUEngine(t).EvaluateSet(sched.Combined, 6)
		c := newGRUEngine().EvaluateSet(sched.Combined, 6)
		if a.Speedup != c.Speedup || a.Accuracy != c.Accuracy || !reflect.DeepEqual(a.Stats, c.Stats) {
			t.Fatalf("engine nondeterministic: %v %+v vs %v %+v", a, a.Stats, c, c.Stats)
		}
	})
}

func TestAverageResults(t *testing.T) {
	cfg := gpu.TegraX1()
	r1 := &gpu.Result{Cfg: cfg, Cycles: 100, DRAMBytes: 10, Launches: 2}
	r2 := &gpu.Result{Cfg: cfg, Cycles: 200, DRAMBytes: 30, Launches: 4}
	avg := averageResults([]*gpu.Result{r1, r2})
	if avg.Cycles != 150 || avg.DRAMBytes != 20 || avg.Launches != 3 {
		t.Fatalf("average: %+v", avg)
	}
	one := &gpu.Result{Cfg: cfg, Cycles: 7}
	if averageResults([]*gpu.Result{one}) != one {
		t.Fatal("single replica should pass through")
	}
}

// TestBaselineConcurrent is the -race regression test for the lazy
// baseline cache: before the sync.Once guard, concurrent Baseline()
// calls on a shared engine raced on the cache field (the exact bug the
// serving loop's shared-engine registry would have hit). A fresh
// engine is built here so the cache fill itself runs under contention.
func TestBaselineConcurrent(t *testing.T) {
	b, _ := model.ByName("MR")
	e := NewEngine(b, tinyProfile(), gpu.TegraX1())
	var wg sync.WaitGroup
	results := make([]*Outcome, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i] = e.Baseline()
			} else {
				out, err := e.EvaluateSetE(sched.Combined, 4)
				if err != nil {
					t.Errorf("EvaluateSetE: %v", err)
					return
				}
				if out.Speedup <= 0 {
					t.Errorf("speedup %v", out.Speedup)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < len(results); i += 2 {
		if results[i] == nil || results[i] != results[0] {
			t.Fatalf("Baseline() not a shared cached outcome at %d", i)
		}
	}
}

// TestEvaluateSetE: the error-returning wrapper is identical to
// EvaluateSet on the happy path (the error leg is pinned down by lstm's
// TestRunEErrors, where Panicf validation genuinely fires).
func TestEvaluateSetE(t *testing.T) {
	e := testEngine(t)
	out, err := e.EvaluateSetE(sched.Combined, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := e.EvaluateSet(sched.Combined, 6)
	if out.Speedup != want.Speedup || out.Accuracy != want.Accuracy {
		t.Fatalf("EvaluateSetE %+v != EvaluateSet %+v", out, want)
	}
}

// TestSweepMatchesEvaluateSet: the sweep's outcomes are EvaluateSet's,
// set by set, bit for bit.
func TestSweepMatchesEvaluateSet(t *testing.T) {
	bothCells(t, sweepMatchesEvaluateSet[*lstm.Network], sweepMatchesEvaluateSet[*gru.Network])
}

func sweepMatchesEvaluateSet[N Net](t *testing.T, e *EngineOf[N]) {
	outs, err := e.SweepE(sched.Combined)
	if err != nil {
		t.Fatal(err)
	}
	for set, got := range outs {
		want := e.EvaluateSet(sched.Combined, set)
		if got.Speedup != want.Speedup || got.EnergySaving != want.EnergySaving ||
			got.Accuracy != want.Accuracy || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("set %d: swept %v, evaluated %v", set, got, want)
		}
	}
}

// TestSweepEReturnsViolation: a Panicf raised inside the sweep's
// evaluations — here a mis-shaped layer, which every scored forward
// trips on the scorer's workers — comes back from SweepE as the error
// at GOMAXPROCS 2.
func TestSweepEReturnsViolation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b, _ := model.ByName("MR")
	e := NewEngine(b, tinyProfile(), gpu.TegraX1())
	l := e.Inst.Net.Layers[0]
	l.Wo = tensor.NewMatrix(l.Hidden, l.Input+1)
	l.Invalidate()
	if outs, err := e.SweepE(sched.Intra); err == nil {
		t.Fatalf("a mis-shaped layer swept to %d outcomes", len(outs))
	}
}
