package recurrent

import (
	"math"

	"mobilstm/internal/intercell"
	"mobilstm/internal/tensor"
)

// exactLayer runs one layer's unmodified flow over one sequence on the
// canonical chain — offline artifacts (predictors, calibrated weights)
// are chain-neutral — handing every cell's state to each. The caller
// owns sc for its whole walk, so the outputs, views of sc, stay valid
// until the layer after next reuses them.
func exactLayer(l Cell, xs []tensor.Vector, sc *forwardScratch, each func(t int, st tensor.Vector)) []tensor.Vector {
	sc.reset(l.Shape(), RunOptions{}, len(xs))
	return runLayer(0, l, xs, RunOptions{}, nil, sc, tensor.KernelsFor(tensor.ChainSSE2), each)
}

// CollectPredictors executes the unmodified network over a set of
// sequences and returns the Eq. 6 predicted context link per layer — the
// offline step 4 of Fig. 10. Every observed link contributes; the paper
// collects the full link distribution, not only weak links.
func CollectPredictors[C Cell](n *Network[C], samples [][]tensor.Vector) []intercell.Predictor {
	h := n.Hidden()
	stats := make([]*intercell.LinkStats, len(n.Layers))
	for i := range stats {
		stats[i] = intercell.NewLinkStats(h)
	}
	// A link is (h, c); cells whose state is h alone leave c zero.
	link := tensor.NewVector(2 * h)
	pool := n.Layers[0].cache()
	sc := pool.arena()
	defer pool.release(sc)
	for _, xs := range samples {
		seq := xs
		for li, l := range n.Layers {
			seq = exactLayer(l, seq, sc, func(_ int, st tensor.Vector) {
				copy(link, st)
				stats[li].Observe(link[:h], link[h:])
			})
		}
	}
	out := make([]intercell.Predictor, len(stats))
	for i, s := range stats {
		out[i] = s.Predictor()
	}
	return out
}

// Calibrate adjusts a randomly-initialized network the way training would,
// using a handful of representative input sequences:
//
//  1. Pre-activation normalization: each layer's input projections W_g are
//     rescaled so the spread (RMS) of W_g*x over the calibration data hits
//     spreadFor(layer). Trained networks use their activations' sensitive
//     range regardless of the input magnitude of the layer; without this,
//     deep layers (whose inputs are bounded hidden vectors) would see
//     near-zero pre-activations and their context links could never
//     weaken — contradicting the paper's Fig. 15 observation that later
//     layers still divide, just less than earlier ones.
//
//  2. Co-adaptation: the columns of each deep layer's W and of the
//     classification head are scaled in proportion to the mean activity
//     E|h_j| of the feature they consume. Trained networks weight features
//     by usefulness, so features that are almost always ~0 carry little
//     downstream weight — which is precisely why the paper's DRS can skip
//     their rows with user-imperceptible accuracy loss on real trained
//     models.
//
// The head is finally rescaled so logits have unit-order spread, keeping
// classification margins comparable across benchmarks.
func Calibrate[C Cell](n *Network[C], seqs [][]tensor.Vector, spreadFor func(layer int) float64) {
	if len(seqs) == 0 {
		tensor.Panicf("recurrent: Calibrate needs at least one sequence")
	}
	cur := seqs
	var act tensor.Vector // per-feature mean |h_j| of the previous layer
	for li, l := range n.Layers {
		if li > 0 {
			coAdapt(l.InputWeights(), act)
			l.Invalidate()
		}
		normalizeSpread(l, cur, spreadFor(li))
		cur, act = forwardAll(l, cur)
	}
	coAdapt([]*tensor.Matrix{n.Head}, act)
	normalizeMargin(n.Head, cur)
}

// coAdapt scales column j of every matrix by the (mean-normalized)
// activity of input feature j, floored so no feature is cut off
// entirely.
func coAdapt(ms []*tensor.Matrix, act tensor.Vector) {
	var mean float64
	for _, a := range act {
		mean += float64(a)
	}
	mean /= float64(len(act))
	if mean <= 0 {
		return
	}
	const floor = 0.05
	for _, w := range ms {
		for i := 0; i < w.Rows; i++ {
			row := w.Row(i)
			for j := range row {
				s := float64(act[j]) / mean
				if s < floor {
					s = floor
				}
				row[j] *= float32(s)
			}
		}
	}
}

// normalizeSpread rescales every W_g so the RMS of the gate
// pre-activations W_g*x over the calibration sequences equals
// targetSpread.
func normalizeSpread(l Cell, seqs [][]tensor.Vector, targetSpread float64) {
	defer l.Invalidate()
	ws := l.InputWeights()
	var sumSq float64
	var count int64
	tmp := tensor.NewVector(l.Shape().Hidden)
	for _, xs := range seqs {
		for _, x := range xs {
			for _, w := range ws {
				tensor.Gemv(tmp, w, x)
				for _, v := range tmp {
					sumSq += float64(v) * float64(v)
				}
				count += int64(len(tmp))
			}
		}
	}
	if count == 0 {
		return
	}
	rms := math.Sqrt(sumSq / float64(count))
	if rms == 0 {
		return
	}
	scale := float32(targetSpread / rms)
	for _, w := range ws {
		for i := range w.Data {
			w.Data[i] *= scale
		}
	}
}

// forwardAll runs the layer exactly over every sequence, returning the
// hidden output sequences and the per-feature mean |h_j|. The outputs
// own their backing store: every sequence's outputs are retained at
// once, so they cannot live in the reused scratch slabs.
func forwardAll(l Cell, seqs [][]tensor.Vector) ([][]tensor.Vector, tensor.Vector) {
	h := l.Shape().Hidden
	out := make([][]tensor.Vector, len(seqs))
	sumAbs := make([]float64, h)
	var count int64
	sc := l.cache().arena()
	defer l.cache().release(sc)
	for si, xs := range seqs {
		hs := views(len(xs), h)
		exactLayer(l, xs, sc, func(t int, st tensor.Vector) {
			copy(hs[t], st)
			for j, v := range hs[t] {
				sumAbs[j] += math.Abs(float64(v))
			}
			count++
		})
		out[si] = hs
	}
	act := tensor.NewVector(h)
	for j := range act {
		act[j] = float32(sumAbs[j] / float64(count))
	}
	return out, act
}

// normalizeMargin scales the head so the mean top-2 logit margin over
// the final hidden states hits a class-count-independent target.
// Trained classifiers produce peaked, confident outputs whatever the
// vocabulary size; without this, a 50-way head's raw Gaussian logits
// would have vanishing margins and any approximation would flip
// labels — matching neither the paper nor real models.
func normalizeMargin(head *tensor.Matrix, seqs [][]tensor.Vector) {
	const targetMargin = 0.8
	var marginSum float64
	var count int64
	logits := tensor.NewVector(head.Rows)
	for _, hs := range seqs {
		if len(hs) == 0 {
			continue
		}
		tensor.Gemv(logits, head, hs[len(hs)-1])
		best := tensor.ArgMax(logits)
		m := math.Inf(1)
		for j, v := range logits {
			if j != best && float64(logits[best]-v) < m {
				m = float64(logits[best] - v)
			}
		}
		if !math.IsInf(m, 1) {
			marginSum += m
			count++
		}
	}
	if count == 0 {
		return
	}
	meanMargin := marginSum / float64(count)
	if meanMargin <= 0 {
		return
	}
	scale := float32(targetMargin / meanMargin)
	for i := range head.Data {
		head.Data[i] *= scale
	}
}
