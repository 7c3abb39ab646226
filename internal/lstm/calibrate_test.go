package lstm

import (
	"math"
	"testing"

	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

func calSeqs(seed uint64, dim, length, count int) [][]tensor.Vector {
	return testSeqs(rng.New(seed), dim, length, count)
}

func preActivationRMS(l *Layer, seqs [][]tensor.Vector) float64 {
	var sumSq float64
	var n int64
	tmp := tensor.NewVector(l.Hidden)
	for _, xs := range seqs {
		for _, x := range xs {
			for _, w := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo} {
				tensor.Gemv(tmp, w, x)
				for _, v := range tmp {
					sumSq += float64(v) * float64(v)
				}
				n += int64(len(tmp))
			}
		}
	}
	return math.Sqrt(sumSq / float64(n))
}

func TestCalibrateHitsTargetSpread(t *testing.T) {
	n := testNet(t, 24, 24, 3, 4, 51)
	seqs := calSeqs(52, 24, 16, 3)
	Calibrate(n, seqs, func(l int) float64 { return 1.0 + 0.5*float64(l) })
	// Layer 0's spread is exactly normalizable (its inputs are fixed).
	if rms := preActivationRMS(n.Layers[0], seqs); math.Abs(rms-1.0) > 1e-3 {
		t.Fatalf("layer 0 spread %v, want 1.0", rms)
	}
}

func TestCalibrateDeepLayersUsable(t *testing.T) {
	// After calibration, deep layers' pre-activations must reach the
	// activation sensitive range — without it they sit near zero.
	n := testNet(t, 24, 24, 3, 4, 53)
	seqs := calSeqs(54, 24, 16, 3)
	// Deliberately shrink deep W to simulate the uncalibrated problem.
	for _, l := range n.Layers[1:] {
		for _, w := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo} {
			for i := range w.Data {
				w.Data[i] *= 0.01
			}
		}
	}
	Calibrate(n, seqs, func(int) float64 { return 1.2 })
	// Layer 2's inputs are the two-layer prefix's hidden outputs: read
	// them through an identity head, one sequence prefix per cell.
	prefix := NewNetwork(24, 24, 2, 24)
	prefix.Layers = n.Layers[:2]
	for j := 0; j < 24; j++ {
		prefix.Head.Set(j, j, 1)
	}
	cur := make([][]tensor.Vector, len(seqs))
	for i, xs := range seqs {
		for t := range xs {
			cur[i] = append(cur[i], prefix.Run(xs[:t+1], Baseline()))
		}
	}
	rms := preActivationRMS(n.Layers[2], cur)
	if rms < 0.8 || rms > 1.6 {
		t.Fatalf("deep layer spread %v, want ~1.2", rms)
	}
}

func TestCalibrateMarginTarget(t *testing.T) {
	n := testNet(t, 24, 24, 2, 8, 55)
	seqs := calSeqs(56, 24, 16, 6)
	Calibrate(n, seqs, func(int) float64 { return 1.2 })
	// Mean top-2 margin over the calibration final states ~ 0.8.
	var sum float64
	var cnt int
	for _, xs := range seqs {
		logits := n.Run(xs, Baseline())
		best := tensor.ArgMax(logits)
		m := math.Inf(1)
		for j, v := range logits {
			if j != best && float64(logits[best]-v) < m {
				m = float64(logits[best] - v)
			}
		}
		sum += m
		cnt++
	}
	mean := sum / float64(cnt)
	if mean < 0.5 || mean > 1.2 {
		t.Fatalf("mean margin %v, want ~0.8", mean)
	}
}

func TestCalibrateCoAdaptsHead(t *testing.T) {
	// Features with near-zero activity should carry much less head
	// weight than active ones after calibration.
	n := testNet(t, 24, 24, 1, 4, 57)
	seqs := calSeqs(58, 24, 16, 4)
	// Force a cluster of permanently-closed output gates.
	for j := 0; j < 8; j++ {
		n.Layers[0].Bo[j] = -12
	}
	Calibrate(n, seqs, func(int) float64 { return 1.2 })
	var dead, live float64
	for i := 0; i < n.Head.Rows; i++ {
		row := n.Head.Row(i)
		for j := 0; j < 8; j++ {
			dead += math.Abs(float64(row[j]))
		}
		for j := 8; j < 24; j++ {
			live += math.Abs(float64(row[j]))
		}
	}
	dead /= 8 * float64(n.Head.Rows)
	live /= 16 * float64(n.Head.Rows)
	if dead > 0.3*live {
		t.Fatalf("dead features keep %.3f head weight vs %.3f live", dead, live)
	}
}

func TestCalibratePanicsWithoutSeqs(t *testing.T) {
	n := testNet(t, 8, 8, 1, 2, 59)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Calibrate(n, nil, func(int) float64 { return 1 })
}
