package userstudy

import (
	"testing"

	"mobilstm/internal/rng"
	"mobilstm/internal/tradeoff"
)

func testCurve() tradeoff.Curve {
	return tradeoff.Curve{
		{Set: 0, Speedup: 1.0, Accuracy: 1.000},
		{Set: 1, Speedup: 1.3, Accuracy: 0.998},
		{Set: 2, Speedup: 1.6, Accuracy: 0.995},
		{Set: 3, Speedup: 1.9, Accuracy: 0.990},
		{Set: 4, Speedup: 2.2, Accuracy: 0.985},
		{Set: 5, Speedup: 2.5, Accuracy: 0.980},
		{Set: 6, Speedup: 2.8, Accuracy: 0.965},
		{Set: 7, Speedup: 3.1, Accuracy: 0.945},
		{Set: 8, Speedup: 3.4, Accuracy: 0.915},
		{Set: 9, Speedup: 3.7, Accuracy: 0.870},
		{Set: 10, Speedup: 4.0, Accuracy: 0.800},
	}
}

func TestPanelDistributions(t *testing.T) {
	panel := Panel(200, rng.New(1))
	if len(panel) != 200 {
		t.Fatalf("panel size %d", len(panel))
	}
	for _, p := range panel {
		if p.DelayWeight < 0.7 || p.DelayWeight >= 1.7 {
			t.Fatalf("delay weight %v", p.DelayWeight)
		}
		if p.JND < 0.012 || p.JND >= 0.03 {
			t.Fatalf("JND %v", p.JND)
		}
		if p.PrefAccuracy <= 0.9 || p.PrefAccuracy >= 1 {
			t.Fatalf("preferred accuracy %v", p.PrefAccuracy)
		}
	}
}

func TestRateBounds(t *testing.T) {
	r := rng.New(2)
	p := Participant{DelayWeight: 1.5, ErrWeight: 30, JND: 0.02, PrefAccuracy: 0.98}
	for i := 0; i < 500; i++ {
		s := p.rateWithNoise(r.Float64()*2, 0.7+0.3*r.Float64(), r.Norm()*0.3)
		if s < 1 || s > 5 {
			t.Fatalf("score %v out of [1,5]", s)
		}
	}
}

func TestRatePrefersFastAccurate(t *testing.T) {
	// Deterministic comparison: average many ratings.
	p := Participant{DelayWeight: 1.2, ErrWeight: 25, JND: 0.02}
	mean := func(delay, acc float64, seed uint64) float64 {
		r := rng.New(seed)
		var s float64
		for i := 0; i < 2000; i++ {
			s += p.rateWithNoise(delay, acc, r.Norm()*0.3)
		}
		return s / 2000
	}
	fast := mean(0.4, 0.99, 3)
	slow := mean(1.0, 0.99, 3)
	if fast <= slow {
		t.Fatalf("faster not preferred: %v vs %v", fast, slow)
	}
	accurate := mean(0.4, 0.995, 4)
	sloppy := mean(0.4, 0.85, 4)
	if accurate <= sloppy {
		t.Fatalf("more accurate not preferred: %v vs %v", accurate, sloppy)
	}
}

func TestImperceptibleLossNotPenalized(t *testing.T) {
	p := Participant{DelayWeight: 1, ErrWeight: 30, JND: 0.02}
	noise := rng.New(7).Norm() * 0.3
	exact := p.rateWithNoise(0.5, 1.0, noise)
	slight := p.rateWithNoise(0.5, 0.985, noise)
	if exact != slight {
		t.Fatalf("sub-JND loss penalized: %v vs %v", exact, slight)
	}
}

func TestRunFig18Ordering(t *testing.T) {
	r := rng.New(0x57ed)
	panel := Panel(30, r.Split())
	res := Run("test", testCurve(), panel, 100, r.Split())
	uo := res.Scores[SchemeUO]
	ao := res.Scores[SchemeAO]
	base := res.Scores[SchemeBaseline]
	bpa := res.Scores[SchemeBPA]
	// The paper's Fig. 18 ordering.
	if !(uo >= ao && ao > base && base > bpa) {
		t.Fatalf("ordering violated: UO %v AO %v base %v BPA %v", uo, ao, base, bpa)
	}
	if res.ChosenUOSet <= 0 {
		t.Fatal("UO never left the baseline set")
	}
}

func TestRunEmptyInputs(t *testing.T) {
	r := rng.New(1)
	if res := Run("x", nil, Panel(3, r), 10, r); len(res.Scores) != 0 {
		t.Fatal("empty curve produced scores")
	}
	if res := Run("x", testCurve(), nil, 10, r); len(res.Scores) != 0 {
		t.Fatal("empty panel produced scores")
	}
}

func TestSchemesList(t *testing.T) {
	if len(Schemes()) != 4 {
		t.Fatal("scheme list")
	}
}
