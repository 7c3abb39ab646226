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
// pre-activations first, then one activation pass over them.
func (l *Layer) FirstGates(g, wx, a tensor.Vector) {
	h := l.Hidden
	xo := wx[3*h:]
	for j := 0; j < h; j++ {
		g[j] = xo[j] + a[j] + l.Bo[j]
	}
	activate(l.gateAct(), g)
}

// Operand is h_{t-1} itself: U_{f,i,c} multiplies the hidden state
// directly.
func (l *Layer) Operand(_, _, h tensor.Vector) tensor.Vector { return h }

// Update computes f_t, i_t and the candidate from a = U_{f,i,c}·h_{t-1}
// and advances (h, c) in place over the kept rows, the ascending list
// the second stage computed; every other row was skipped, and its c and
// h elements are approximated to zero (§V-A). The walk gathers the kept
// rows' pre-activations into a's three blocks in place (kept row j
// lands at k ≤ j, after a[k] was read), so each gate is one activation
// pass over the kept rows only; it then zeroes the whole state and
// scatters the kept rows' new c and h back. No row is tested, and a
// skipped row's product is never read. tanh(c) reuses the f block.
func (l *Layer) Update(st, wx, a, g tensor.Vector, kept []int) {
	h, gate, n := l.Hidden, l.gateAct(), len(kept)
	sh, sc := st[:h], st[h:]
	xf, xi, xc := wx[:h], wx[h:2*h], wx[2*h:3*h]
	af, ai, ac := a[:h], a[h:2*h], a[2*h:3*h]
	f, i, cand := af[:n], ai[:n], ac[:n]
	for k, j := range kept {
		f[k] = xf[j] + af[j] + l.Bf[j]
		i[k] = xi[j] + ai[j] + l.Bi[j]
		cand[k] = xc[j] + ac[j] + l.Bc[j]
	}
	activate(gate, f)
	activate(gate, i)
	tensor.TanhVec(cand, cand)
	for k, j := range kept {
		c := f[k]*sc[j] + i[k]*cand[k]
		i[k], f[k] = c, c
	}
	tensor.TanhVec(f, f)
	clear(st)
	for k, j := range kept {
		sc[j], sh[j] = i[k], g[j]*f[k]
	}
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
