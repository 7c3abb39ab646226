package lstm

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/tensor"
)

// The LSTM cell as the forward core sees it (recurrent.Cell). A wx row
// is [xf|xi|xc|xo]; the first recurrent stage is the output gate alone
// (o_t first, Algorithm 3 lines 4-6), the second the f, i, c block; the
// state is h|c.

var _ recurrent.Cell = (*Layer)(nil)

// Shape declares four gates, a one-block first stage at the end of the
// wx row and a two-block state.
func (l *Layer) Shape() recurrent.Shape {
	return recurrent.Shape{Hidden: l.Hidden, Input: l.Input, Gates: 4, First: 1, FirstAt: 3, State: 2}
}

// InputWeights returns the four input projections in f,i,c,o order.
func (l *Layer) InputWeights() []*tensor.Matrix {
	return []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo}
}

// RecurrentWeights splits U into the output gate's block and the
// DRS-skippable f,i,c block.
func (l *Layer) RecurrentWeights() (first, second []*tensor.Matrix) {
	return []*tensor.Matrix{l.Uo}, []*tensor.Matrix{l.Uf, l.Ui, l.Uc}
}

func (l *Layer) gateAct() tensor.Activation {
	if l.gate == nil {
		return tensor.ActSigmoid
	}
	return *l.gate
}

// FirstGates computes o_t = σ(W_o x + U_o h_{t-1} + b_o) into g: the
// pre-activations first (tensor.Sum3), then one activation pass over
// them.
func (l *Layer) FirstGates(g, wx, a tensor.Vector) {
	tensor.Sum3(g, wx[3*l.Hidden:], a, l.Bo)
	activate(l.gateAct(), g)
}

// Operand is h_{t-1} itself: U_{f,i,c} multiplies the hidden state
// directly.
func (l *Layer) Operand(_, _, h tensor.Vector) tensor.Vector { return h }

// Update computes f_t, i_t and the candidate from a = U_{f,i,c}·h_{t-1}
// and advances (h, c) in place over the rows mk keeps, the ones the
// second stage computed; every other row was skipped, and its c and h
// elements are approximated to zero (§V-A). The kept rows'
// pre-activations are gathered into the heads of a's three blocks
// (tensor.GatherSum3, in place), so each gate is one activation pass
// over the kept rows only; tensor.CellState then writes c to the state
// and, packed, over f for tanh(c), and tensor.ScatterMul spreads
// h = o ⊙ tanh(c) back, both zeroing the skipped rows. No row is
// tested, and a skipped row's product is never read.
func (l *Layer) Update(st, wx, a, g tensor.Vector, mk tensor.RowMask) {
	h, gate, n := l.Hidden, l.gateAct(), len(mk.Kept)
	af, ai, ac := a[:h], a[h:2*h], a[2*h:3*h]
	f, i, cand := af[:n], ai[:n], ac[:n]
	tensor.GatherSum3(f, wx[:h], af, l.Bf, mk)
	tensor.GatherSum3(i, wx[h:2*h], ai, l.Bi, mk)
	tensor.GatherSum3(cand, wx[2*h:3*h], ac, l.Bc, mk)
	activate(gate, f)
	activate(gate, i)
	tensor.TanhVec(cand, cand)
	tensor.CellState(st[h:], f, i, cand, mk)
	tensor.TanhVec(f, f)
	tensor.ScatterMul(st[:h], g, f, mk)
}

// activate applies the gate activation to v in place: one vector pass
// for the exact sigmoid, the scalar loop for any other gate (the hard
// sigmoid).
func activate(gate tensor.Activation, v tensor.Vector) {
	if gate == tensor.ActSigmoid {
		tensor.SigmoidVec(v, v)
		return
	}
	for j, x := range v {
		v[j] = gate.Apply(x)
	}
}

// LinkRelevance scores a link with the layer's Algorithm 2 analyzer.
func (l *Layer) LinkRelevance() func(wx tensor.Vector) float64 {
	an, h := l.Analyzer(), l.Hidden
	return func(wx tensor.Vector) float64 {
		return an.Relevance(wx[:h], wx[h:2*h], wx[2*h:3*h], wx[3*h:])
	}
}

// InitPredicted starts a sub-layer from the predicted link: both the
// hidden output and the cell state cross the cut.
func (l *Layer) InitPredicted(st tensor.Vector, p intercell.Predictor) {
	copy(st[:l.Hidden], p.H)
	copy(st[l.Hidden:], p.C)
}
