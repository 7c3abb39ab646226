// Package thresholds is the single home of the paper's threshold
// constants: the (alpha_inter, alpha_intra) sweep geometry of §VI-C and
// the calibration fudge factors shared by the LSTM and GRU engines.
//
// Scattering these literals across packages is exactly the failure mode
// the threshold rule of TestSourceRules (source_rules_test.go) guards
// against: the DRS accuracy numbers at each threshold set are only
// reproducible if every consumer compares against bit-identical
// constants. New threshold constants go here, not inline.
package thresholds

const (
	// AlphaIntraMax is the upper limit of the DRS near-zero threshold:
	// with o_t[j] < 0.45 the corresponding h_t element is bounded by
	// 0.45 — well past what "trivial contribution" can mean, which is
	// the point: the top threshold sets are the paper's "most
	// aggressive case with the maximal performance boost" where
	// accuracy visibly degrades (Fig. 19). Threshold set i uses i/10
	// of it.
	AlphaIntraMax = 0.45

	// Sets is the number of (alpha_inter, alpha_intra) pairs in the
	// paper's sensitivity sweep: set 0 is the exact baseline, set 10
	// the most aggressive (§VI-C).
	Sets = 11

	// UserAccuracyFloor is the user-imperceptible accuracy bound: the
	// accuracy-oriented (AO) threshold set is the most aggressive one
	// whose relative accuracy stays at or above it (98%, i.e. a 2%
	// loss; §VI-C).
	UserAccuracyFloor = 0.98

	// TieBreakUp nudges a calibrated threshold just above an observed
	// relevance value so that the observation itself falls below the
	// threshold.
	TieBreakUp = 1.0000001

	// CalibOvershoot is the fallback alpha_inter upper limit when even
	// full division cannot reach the minimal tissue count (short
	// layers): just above the largest observed relevance.
	CalibOvershoot = 1.01

	// CalibAlphaIntra is the reference DRS operating point used purely
	// for corpus calibration in internal/model: just below the mid
	// threshold, so accepted sequences have margins that survive
	// realistic approximation.
	CalibAlphaIntra = 0.2

	// CalibInterQuantile is the relevance quantile defining the
	// corpus-calibration alpha_inter (division at the 35th percentile).
	CalibInterQuantile = 0.35
)

// ClampSet maps a threshold-set index onto 0..Sets-1.
func ClampSet(set int) int { return min(max(set, 0), Sets-1) }
