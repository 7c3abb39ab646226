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

// Classifier is the network Score runs; it must be safe for concurrent
// Classify calls, as lstm.Network and gru.Network are.
type Classifier interface {
	Classify(xs []tensor.Vector, opt recurrent.RunOptions) int
}

// Score runs the network on every sequence under the given options and
// returns the fraction of outputs matching the reference labels.
// Sequences are evaluated in parallel.
func Score(net Classifier, seqs [][]tensor.Vector, refs []int, opt recurrent.RunOptions) float64 {
	if len(seqs) == 0 {
		return 1
	}
	if len(seqs) != len(refs) {
		tensor.Panicf("accuracy: sequence/reference length mismatch")
	}
	match := make([]bool, len(seqs))
	tensor.ParallelFor(len(seqs), func(i int) {
		o := opt
		o.Trace = nil // traces are per-goroutine state; scoring never needs them
		match[i] = net.Classify(seqs[i], o) == refs[i]
	})
	n := 0
	for _, m := range match {
		if m {
			n++
		}
	}
	return float64(n) / float64(len(seqs))
}
