package tradeoff

import "testing"

func testCurve() Curve {
	return Curve{
		{Set: 0, Speedup: 1.00, Accuracy: 1.000},
		{Set: 1, Speedup: 1.20, Accuracy: 1.000},
		{Set: 2, Speedup: 1.45, Accuracy: 0.995},
		{Set: 3, Speedup: 1.70, Accuracy: 0.990},
		{Set: 4, Speedup: 1.95, Accuracy: 0.985},
		{Set: 5, Speedup: 2.20, Accuracy: 0.980},
		{Set: 6, Speedup: 2.50, Accuracy: 0.960},
		{Set: 7, Speedup: 2.80, Accuracy: 0.930},
		{Set: 8, Speedup: 3.10, Accuracy: 0.890},
		{Set: 9, Speedup: 3.40, Accuracy: 0.840},
		{Set: 10, Speedup: 3.60, Accuracy: 0.780},
	}
}

func TestAO(t *testing.T) {
	// Largest set with accuracy >= 0.98.
	if ao := testCurve().AO(); ao != 5 {
		t.Fatalf("AO = %d, want 5", ao)
	}
}

func TestAONonMonotoneAccuracy(t *testing.T) {
	c := testCurve()
	c[8].Accuracy = 0.985 // a wobble back above the bound
	if ao := c.AO(); ao != 8 {
		t.Fatalf("AO = %d, want 8 (largest qualifying set)", ao)
	}
}

func TestBPA(t *testing.T) {
	c := testCurve()
	best := c.BPA()
	v := c.At(best).Speedup * c.At(best).Accuracy
	for _, p := range c {
		if p.Speedup*p.Accuracy > v+1e-12 {
			t.Fatalf("set %d beats chosen BPA %d", p.Set, best)
		}
	}
}

func TestLargestWithAccuracy(t *testing.T) {
	c := testCurve()
	if s := c.LargestWithAccuracy(0.99); s != 3 {
		t.Fatalf("got %d, want 3", s)
	}
	if s := c.LargestWithAccuracy(0.5); s != 10 {
		t.Fatalf("tolerant user: %d, want 10", s)
	}
	if s := c.LargestWithAccuracy(1.1); s != 0 {
		t.Fatalf("impossible demand: %d, want 0 (baseline)", s)
	}
}

func TestAtClamps(t *testing.T) {
	c := testCurve()
	if c.At(-3).Set != 0 || c.At(99).Set != 10 {
		t.Fatal("At does not clamp")
	}
	var empty Curve
	if empty.At(2) != (Point{}) {
		t.Fatal("empty curve At")
	}
}
