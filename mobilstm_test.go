package mobilstm_test

import (
	"sync"
	"testing"

	"mobilstm"
	"mobilstm/internal/core"
	"mobilstm/internal/thresholds"
)

func TestBenchmarksList(t *testing.T) {
	bs := mobilstm.Benchmarks()
	if len(bs) != 6 {
		t.Fatalf("benchmark count %d", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if b.Hidden <= 0 || b.Layers <= 0 || b.Length <= 0 || b.Classes <= 0 {
			t.Fatalf("bad benchmark %+v", b)
		}
		seen[b.Name] = true
	}
	for _, name := range []string{"IMDB", "MR", "BABI", "SNLI", "PTB", "MT"} {
		if !seen[name] {
			t.Fatalf("missing %s", name)
		}
	}
}

func TestOpenUnknown(t *testing.T) {
	if _, err := mobilstm.Open("bogus", mobilstm.Options{}); err == nil {
		t.Fatal("no error for unknown benchmark")
	}
	if _, err := mobilstm.OpenCustom("bogus", 0, 0, 0, mobilstm.Options{}); err == nil {
		t.Fatal("no error for unknown custom base")
	}
}

func TestPublicAPIFlow(t *testing.T) {
	sys, err := mobilstm.Open("MR", mobilstm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "MR" {
		t.Fatalf("name %q", sys.Name())
	}
	if sys.MTS() < 2 {
		t.Fatalf("MTS %d", sys.MTS())
	}

	base := sys.Evaluate(mobilstm.ModeBaseline, 0)
	if base.Speedup != 1 || base.Accuracy != 1 {
		t.Fatalf("baseline: %+v", base)
	}
	if base.Milliseconds <= 0 || base.DRAMBytes <= 0 {
		t.Fatalf("baseline resources: %+v", base)
	}

	curve := sys.Curve(mobilstm.ModeCombined)
	if len(curve) != 11 {
		t.Fatalf("curve length %d", len(curve))
	}
	if curve[10].Speedup <= 1 {
		t.Fatalf("max-threshold speedup %v", curve[10].Speedup)
	}

	ao := sys.AO(mobilstm.ModeCombined)
	if ao.Accuracy < 0.98 && ao.Set != 0 {
		t.Fatalf("AO accuracy %v at set %d", ao.Accuracy, ao.Set)
	}
	bpa := sys.BPA(mobilstm.ModeCombined)
	if bpa.Speedup*bpa.Accuracy+1e-9 < ao.Speedup*ao.Accuracy {
		t.Fatalf("BPA (%v) worse than AO (%v) on its own objective",
			bpa.Speedup*bpa.Accuracy, ao.Speedup*ao.Accuracy)
	}

	strict := sys.UO(mobilstm.ModeCombined, 0.9999)
	loose := sys.UO(mobilstm.ModeCombined, 0.5)
	if strict.Set > loose.Set {
		t.Fatalf("UO not monotone in demanded accuracy: %d vs %d", strict.Set, loose.Set)
	}

	// The GRU facade's AO is core.AOSet's rule applied to its own curve.
	gsys, err := mobilstm.OpenGRU("KWS-GRU")
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*core.Outcome, thresholds.Sets)
	for set := range outs {
		outs[set] = &core.Outcome{Accuracy: gsys.Evaluate(set).Accuracy}
	}
	if got, want := gsys.AO(), gsys.Evaluate(core.AOSet(outs)); got != want {
		t.Fatalf("GRU AO = %+v, want the core.AOSet point %+v", got, want)
	}
}

// TestOutOfRangeSetsClamp pins one rule for threshold sets outside
// 0..10 on both facades: a set below the range evaluates and reports
// set 0, the exact baseline, and a set above it set 10, field for field.
func TestOutOfRangeSetsClamp(t *testing.T) {
	sys, err := mobilstm.Open("MR", mobilstm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []mobilstm.Mode{
		mobilstm.ModeBaseline, mobilstm.ModeInter, mobilstm.ModeIntra, mobilstm.ModeCombined,
	} {
		for _, c := range []struct{ out, in int }{{-1, 0}, {thresholds.Sets, thresholds.Sets - 1}} {
			if got, want := sys.Evaluate(m, c.out), sys.Evaluate(m, c.in); got != want {
				t.Errorf("%v set %d = %+v, want set %d's %+v", m, c.out, got, c.in, want)
			}
		}
	}
	gsys, err := mobilstm.OpenGRU("KWS-GRU")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ out, in int }{{-1, 0}, {thresholds.Sets, thresholds.Sets - 1}} {
		if got, want := gsys.Evaluate(c.out), gsys.Evaluate(c.in); got != want {
			t.Errorf("GRU set %d = %+v, want set %d's %+v", c.out, got, c.in, want)
		}
	}
}

// TestGRUSystemEvaluateConcurrent: GRUSystem is public API, so callers
// may evaluate one fresh system from several goroutines. Under -race
// this pins that Evaluate writes no shared state, and each goroutine
// must get the outcome a serial caller gets.
func TestGRUSystemEvaluateConcurrent(t *testing.T) {
	sys, err := mobilstm.OpenGRU("KWS-GRU")
	if err != nil {
		t.Fatal(err)
	}
	var got [2]mobilstm.GRUOutcome
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sys.Evaluate(4 + i)
		}()
	}
	wg.Wait()
	for i, o := range got {
		if want := sys.Evaluate(4 + i); o != want {
			t.Errorf("concurrent Evaluate(%d) = %+v, serial %+v", 4+i, o, want)
		}
	}
}

func TestOpenCustomShapes(t *testing.T) {
	sys, err := mobilstm.OpenCustom("MR", 0, 0, 44, mobilstm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Evaluate(mobilstm.ModeBaseline, 0)
	orig, _ := mobilstm.Open("MR", mobilstm.Options{})
	origBase := orig.Evaluate(mobilstm.ModeBaseline, 0)
	// Doubling the length must ~double the baseline latency (it is
	// dominated by per-cell weight re-loads).
	ratio := base.Milliseconds / origBase.Milliseconds
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("2x length latency ratio %v, want ~2", ratio)
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []mobilstm.Mode{
		mobilstm.ModeBaseline, mobilstm.ModeInter, mobilstm.ModeIntra, mobilstm.ModeCombined,
	} {
		if m.String() == "" {
			t.Fatalf("mode %d has no name", m)
		}
	}
}
