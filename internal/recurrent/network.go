package recurrent

import (
	"fmt"

	"mobilstm/internal/tensor"
)

// Network is a stack of recurrent layers of one cell kind with a linear
// classification head on the final hidden state. lstm.Network and
// gru.Network embed it, so every entry point below is theirs by
// promotion.
type Network[C Cell] struct {
	Layers []C
	// Head maps the last layer's final hidden state to class logits
	// (Classes x Hidden).
	Head     *tensor.Matrix
	HeadBias tensor.Vector
}

// NewNetwork builds a zero-weight network: layers stacked hidden->hidden
// after an input->hidden first layer, and a classification head.
func NewNetwork[C Cell](input, hidden, layers, classes int, newLayer func(hidden, input int) C) Network[C] {
	if layers < 1 || classes < 1 {
		tensor.Panicf("recurrent: network needs at least one layer and one class")
	}
	n := Network[C]{
		Head:     tensor.NewMatrix(classes, hidden),
		HeadBias: tensor.NewVector(classes),
	}
	in := input
	for i := 0; i < layers; i++ {
		n.Layers = append(n.Layers, newLayer(hidden, in))
		in = hidden
	}
	return n
}

// Shape returns the first layer's cell shape: the network's input size,
// the hidden size and the cell's block counts.
func (n *Network[C]) Shape() Shape { return n.Layers[0].Shape() }

// Hidden returns the hidden size (uniform across layers).
func (n *Network[C]) Hidden() int { return n.Layers[0].Shape().Hidden }

// Input returns the first layer's input size.
func (n *Network[C]) Input() int { return n.Layers[0].Shape().Input }

// Classes returns the head's output dimension.
func (n *Network[C]) Classes() int { return n.Head.Rows }

// Run executes the network on one input sequence and returns the class
// logits. The sequence is the layer input x_1..x_n (each of length
// Input()); every layer consumes the previous layer's hidden outputs.
// Run is the layer loop with one member.
func (n *Network[C]) Run(xs []tensor.Vector, opt RunOptions) tensor.Vector {
	if len(xs) == 0 {
		tensor.Panicf("recurrent: empty input sequence")
	}
	n.checkInter(opt)
	return n.forward([][]tensor.Vector{xs}, opt)[0]
}

// forward is the layer loop: it runs every layer over the members'
// sequences end to end and returns each member's logits, freshly
// allocated. It takes one arena from layer 0's pool for the whole call
// and hands it back when the call ends. The arena holds every per-cell
// buffer (gate pre-activations, first-stage gates, hidden outputs,
// sub-layer states), so the hot path performs no per-cell allocation,
// and a steady-state call allocates no arena either.
func (n *Network[C]) forward(seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	ks := tensor.KernelsFor(tensor.ChainAuto)
	lens := make([]int, len(seqs))
	for i, xs := range seqs {
		lens[i] = len(xs)
	}
	pool := n.Layers[0].cache()
	sc := pool.arena()
	defer pool.release(sc)
	sc.reset(n.Layers[0].Shape(), opt, lens...)
	hs := sc.concat(seqs)
	for li, l := range n.Layers {
		var lt *LayerTrace
		if opt.Trace != nil {
			opt.Trace.Layers = append(opt.Trace.Layers, LayerTrace{Layer: li, Cells: len(hs)})
			lt = &opt.Trace.Layers[len(opt.Trace.Layers)-1]
		}
		hs = runLayer(li, l, hs, opt, lt, sc, ks, nil)
	}
	out := make([]tensor.Vector, len(seqs))
	for i, mb := range sc.members {
		out[i] = tensor.NewVector(n.Head.Rows)
		ks.Gemv(out[i], n.Head, hs[mb.off+mb.n-1])
		tensor.Add(out[i], out[i], n.HeadBias)
	}
	return out
}

// checkInter validates the options Inter mode requires.
func (n *Network[C]) checkInter(opt RunOptions) {
	if !opt.Inter {
		return
	}
	if opt.MTS < 1 {
		tensor.Panicf("recurrent: Inter mode requires MTS >= 1")
	}
	if len(opt.Predictors) != len(n.Layers) {
		tensor.Panicf("recurrent: %d predictors for %d layers", len(opt.Predictors), len(n.Layers))
	}
}

// CheckSequence validates a caller-supplied input sequence against the
// network's input width without running it: a serving front-end uses it
// to reject one malformed batch member with its own error instead of
// failing the co-batched requests.
func (n *Network[C]) CheckSequence(xs []tensor.Vector) error {
	if len(xs) == 0 {
		return fmt.Errorf("recurrent: empty input sequence")
	}
	in := n.Input()
	for t, x := range xs {
		if len(x) != in {
			return fmt.Errorf("recurrent: sequence element %d has length %d, want input width %d", t, len(x), in)
		}
	}
	return nil
}

// Classify runs the network and returns the argmax class.
func (n *Network[C]) Classify(xs []tensor.Vector, opt RunOptions) int {
	return tensor.ArgMax(n.Run(xs, opt))
}

// ClassifyE runs the network and returns the argmax class, reporting
// validation failures as errors (the serving-path Classify).
func (n *Network[C]) ClassifyE(xs []tensor.Vector, opt RunOptions) (class int, err error) {
	defer tensor.Guard(&err)
	return n.Classify(xs, opt), nil
}

// The batch-B forward path: RunBatch executes B sequences together as
// the same layer loop as Run with B members. Step k of a layer advances
// tissue k of every member as one group, so each recurrent stage streams
// the united weights once for the whole batch (tensor.PackedGemmRows —
// the Appleyard-style GEMV→GEMM conversion) instead of B independent
// GEMV chains re-streaming U per member. The serving loop dispatches a
// drained batching window through this path as one call.
//
// Output i of RunBatch(seqs...) is bitwise identical to serial
// Run(seqs[i]) in every mode, at every GOMAXPROCS, cold or warm cache:
// every output element is the same row-dot chain and every Cell method
// runs on the same values in the same per-cell order as the serial
// flow; batching only changes which rows share a kernel call.
//
// Ragged lengths and Inter structures batch together in lockstep by
// tissue index: at step k only the members with a k-th tissue are
// active (a member without Inter has one tissue per cell) — the group
// shrinks as short members finish, with no padding compute, and each
// member's logits come from its own final hidden state.

// RunBatch executes the network on a batch of input sequences and
// returns one logits vector per member, bitwise identical to calling
// Run on each member alone. Members may have different (non-zero)
// lengths, and under Inter divide into different tissues. Tracing is
// per-sequence instrumentation: a non-nil opt.Trace rejects the batch —
// trace members serially instead.
func (n *Network[C]) RunBatch(seqs [][]tensor.Vector, opt RunOptions) []tensor.Vector {
	n.checkBatch(seqs, opt)
	return n.forward(seqs, opt)
}

// ClassifyBatch runs the batch and returns the argmax class per member.
func (n *Network[C]) ClassifyBatch(seqs [][]tensor.Vector, opt RunOptions) []int {
	outs := n.RunBatch(seqs, opt)
	classes := make([]int, len(outs))
	for i, logits := range outs {
		classes[i] = tensor.ArgMax(logits)
	}
	return classes
}

// ClassifyBatchE is the error-returning ClassifyBatch (the serving
// loop's batch dispatch entry point).
func (n *Network[C]) ClassifyBatchE(seqs [][]tensor.Vector, opt RunOptions) (classes []int, err error) {
	defer tensor.Guard(&err)
	return n.ClassifyBatch(seqs, opt), nil
}

// checkBatch applies Run's validation across the batch.
func (n *Network[C]) checkBatch(seqs [][]tensor.Vector, opt RunOptions) {
	if len(seqs) == 0 {
		tensor.Panicf("recurrent: empty batch")
	}
	for i, xs := range seqs {
		if len(xs) == 0 {
			tensor.Panicf("recurrent: batch member %d is an empty input sequence", i)
		}
	}
	if opt.Trace != nil {
		tensor.Panicf("recurrent: Trace is per-sequence; run batch members serially to trace")
	}
	n.checkInter(opt)
}
