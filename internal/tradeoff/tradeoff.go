// Package tradeoff explores the performance-accuracy design space the two
// thresholds open (§VI-C): threshold-set sweeps, and the AO / BPA / UO
// operating-point selections used in Fig. 18 and Fig. 19.
package tradeoff

import "mobilstm/internal/thresholds"

// Point is one evaluated threshold set.
type Point struct {
	// Set is the threshold-set index (0 = exact baseline, 10 = maximal
	// thresholds).
	Set int
	// Speedup and EnergySaving are relative to the baseline flow.
	Speedup      float64
	EnergySaving float64
	// Accuracy is relative output accuracy (1 = exact).
	Accuracy float64
}

// Curve is a full threshold sweep, indexed by set.
type Curve []Point

// AO returns the accuracy-oriented set: the largest set whose accuracy
// loss stays user-imperceptible (thresholds.UserAccuracyFloor, §VI-A).
func (c Curve) AO() int {
	return c.LargestWithAccuracy(thresholds.UserAccuracyFloor)
}

// BPA returns the best performance-accuracy set: argmax speedup*accuracy.
func (c Curve) BPA() int {
	best, bestV := 0, -1.0
	for _, p := range c {
		if v := p.Speedup * p.Accuracy; v > bestV {
			best, bestV = p.Set, v
		}
	}
	return best
}

// LargestWithAccuracy returns the largest set whose accuracy is at least
// the bound — the selection rule the UO scheme applies per user with
// their personal preferred accuracy.
func (c Curve) LargestWithAccuracy(bound float64) int {
	set := 0
	for _, p := range c {
		if p.Accuracy >= bound {
			set = p.Set
		}
	}
	return set
}

// At returns the point for a set (clamped to the curve ends).
func (c Curve) At(set int) Point {
	if len(c) == 0 {
		return Point{}
	}
	if set < 0 {
		set = 0
	}
	if set >= len(c) {
		set = len(c) - 1
	}
	return c[set]
}
