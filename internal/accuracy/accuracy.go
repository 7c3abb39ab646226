// Package accuracy scores approximated recurrent (LSTM or GRU)
// executions against the full-precision reference. The metric is
// relative output accuracy — the fraction of inputs whose
// classification matches the exact flow — which is exactly the quantity
// the paper's "user preferred accuracy" thresholds (98% = 2%
// user-imperceptible loss) constrain.
package accuracy

import (
	"mobilstm/internal/recurrent"
	"mobilstm/internal/tensor"
)

// Classifier is the network Score runs: its batch forward, which must
// be safe for concurrent calls and classify every member as a lone
// forward of it would, bit for bit — the RunBatch contract lstm.Network
// and gru.Network keep.
type Classifier interface {
	ClassifyBatch(seqs [][]tensor.Vector, opt recurrent.RunOptions) []int
}

// Score runs the network on every sequence under the given options and
// returns the fraction of outputs matching the reference labels. The
// sequences go through the batch forward four at a time, the batches in
// parallel (tensor.ParallelBatches); a Panicf in any of them is
// re-raised on the caller.
func Score(net Classifier, seqs [][]tensor.Vector, refs []int, opt recurrent.RunOptions) float64 {
	if len(seqs) == 0 {
		return 1
	}
	if len(seqs) != len(refs) {
		tensor.Panicf("accuracy: sequence/reference length mismatch")
	}
	opt.Trace = nil // traces are per-sequence state; scoring never needs them
	match := make([]bool, len(seqs))
	tensor.ParallelBatches(len(seqs), func(lo, hi int) {
		for i, class := range net.ClassifyBatch(seqs[lo:hi], opt) {
			match[lo+i] = class == refs[lo+i]
		}
	})
	n := 0
	for _, m := range match {
		if m {
			n++
		}
	}
	return float64(n) / float64(len(seqs))
}
