package thresholds

import "testing"

// The sweep geometry is part of the paper's reported tables; a silent
// change to any of these shifts every regenerated figure.
func TestSweepGeometry(t *testing.T) {
	if Sets != 11 {
		t.Fatalf("Sets = %d, want 11 (§VI-C sweep: sets 0..10)", Sets)
	}
	if AlphaIntraMax != 0.45 {
		t.Fatalf("AlphaIntraMax = %v, want 0.45", AlphaIntraMax)
	}
	// Set i walks i/(Sets-1) of the intra threshold; the top set must
	// land exactly on the max.
	top := AlphaIntraMax * (float64(Sets-1) / float64(Sets-1))
	if top != AlphaIntraMax {
		t.Fatalf("sweep walk does not reach AlphaIntraMax: %v", top)
	}
}

func TestCalibrationFactors(t *testing.T) {
	if TieBreakUp <= 1 || TieBreakUp >= 1.001 {
		t.Fatalf("TieBreakUp = %v, want a hair above 1", TieBreakUp)
	}
	if CalibOvershoot <= TieBreakUp {
		t.Fatalf("CalibOvershoot (%v) must overshoot more than TieBreakUp (%v)",
			CalibOvershoot, TieBreakUp)
	}
	if UserAccuracyFloor != 0.98 {
		t.Fatalf("UserAccuracyFloor = %v, want 0.98 (2%% imperceptible loss)", UserAccuracyFloor)
	}
}
