// Package stats provides the small statistics toolkit the calibration
// and reporting layers share: quantiles with a fixed index convention,
// the mean and the standard deviation.
//
// The quantile convention is sorted[int(q*(n-1))] — the lower empirical
// quantile. Every calibration site uses this same convention so that
// threshold sets stay bit-reproducible.
package stats

import (
	"math"
	"sort"

	"mobilstm/internal/tensor"
)

// Quantile returns the q-quantile of sorted data (q clamped to [0, 1];
// a NaN q clamps to 0 — it would otherwise pass both clamp branches and
// reach the platform-defined int(NaN) conversion). It panics on empty
// input.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		tensor.Panicf("stats: Quantile of empty slice")
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// QuantileOf copies, sorts and returns the q-quantile of xs.
func QuantileOf(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantile(sorted, q)
}

// Median returns the 0.5-quantile of xs (copy + sort).
func Median(xs []float64) float64 { return QuantileOf(xs, 0.5) }

// Mean returns the arithmetic mean; 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation; 0 for n < 2.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}
