package stats

import (
	"math"
	"testing"
)

func TestQuantileConvention(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-1, 1}, {2, 5}, // clamped
		{0.49, 2}, // lower empirical quantile (floor index)
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	one := []float64{7}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"NaN q clamps low", []float64{1, 2, 3}, math.NaN(), 1},
		{"NaN q single", one, math.NaN(), 7},
		{"q=0 single", one, 0, 7},
		{"q=1 single", one, 1, 7},
		{"q=0.5 single", one, 0.5, 7},
		{"q=0 pair", []float64{1, 9}, 0, 1},
		{"q=1 pair", []float64{1, 9}, 1, 9},
		{"+Inf q clamps high", []float64{1, 9}, math.Inf(1), 9},
		{"-Inf q clamps low", []float64{1, 9}, math.Inf(-1), 1},
	}
	for _, c := range cases {
		if got := Quantile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestQuantileOfDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := QuantileOf(xs, 0.5); m != 2 {
		t.Fatalf("median %v", m)
	}
	if xs[0] != 3 {
		t.Fatal("input mutated")
	}
	if Median(xs) != 2 {
		t.Fatal("Median")
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if s := Std(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("std %v", s)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("empty/short cases")
	}
}
