// Package gru applies the paper's optimizations to Gated Recurrent Unit
// networks — the extension the paper sketches in §II-B ("the proposed
// methods can also be applied to GRUs with simple adjustment").
//
// The GRU cell:
//
//	z_t = sigma(W_z x_t + U_z h_{t-1} + b_z)        (update gate)
//	r_t = sigma(W_r x_t + U_r h_{t-1} + b_r)        (reset gate)
//	~h_t = tanh(W_h x_t + U_h (r_t .* h_{t-1}) + b_h)
//	h_t  = (1 - z_t) .* h_{t-1} + z_t .* ~h_t
//
// The adjustments:
//
//   - Inter-cell: the context link carries h_{t-1} both directly (the
//     (1-z) carry) and through the gates. A link is weak for element j
//     only if the update gate is pinned open (z_t[j] ~ 1, killing the
//     carry) AND the candidate's activation input range is saturated.
//     Relevance mirrors Algorithm 2's overlap geometry over those two
//     conditions.
//   - Intra-cell (DRS): the update gate plays the output-filter role.
//     Where z_t[j] < alpha, h_t[j] ~ h_{t-1}[j] and the candidate row j
//     of U_h need not be loaded or computed — the skip approximates
//     h_t[j] by its carry, not by zero. Only the U_h block (a third of
//     the united matrix) is skippable, so GRU-DRS compresses less than
//     LSTM-DRS, but the skip is also gentler on accuracy.
package gru

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// Layer holds one GRU layer's weights, shared by all unrolled cells.
type Layer struct {
	Hidden, Input int

	Wz, Wr, Wh *tensor.Matrix // (Hidden x Input)
	Uz, Ur, Uh *tensor.Matrix // (Hidden x Hidden)
	Bz, Br, Bh tensor.Vector

	// PackedCache caches the united weight copies the forward core
	// consumes; mutate a weight matrix after construction only through
	// code that calls Invalidate.
	recurrent.PackedCache
}

// NewLayer returns a zero-weight layer.
func NewLayer(hidden, input int) *Layer {
	return &Layer{
		Hidden: hidden, Input: input,
		Wz: tensor.NewMatrix(hidden, input), Wr: tensor.NewMatrix(hidden, input),
		Wh: tensor.NewMatrix(hidden, input),
		Uz: tensor.NewMatrix(hidden, hidden), Ur: tensor.NewMatrix(hidden, hidden),
		Uh: tensor.NewMatrix(hidden, hidden),
		Bz: tensor.NewVector(hidden), Br: tensor.NewVector(hidden), Bh: tensor.NewVector(hidden),
	}
}

// UnitedUBytes is the footprint of the united U_{z,r,h} matrix.
func (l *Layer) UnitedUBytes() int64 {
	return 3 * int64(l.Hidden) * int64(l.Hidden) * 4
}

// Network is a stack of GRU layers with a linear head. The forward
// entry points (Run, RunBatch, Classify, CheckSequence and their
// error-returning forms) are the embedded core's.
type Network struct {
	recurrent.Network[*Layer]
}

// The forward core's option and trace types, under this package's
// names. Only the H vector of a predictor is used.
type (
	RunOptions = recurrent.RunOptions
	Trace      = recurrent.Trace
	LayerTrace = recurrent.LayerTrace
)

// Baseline returns exact-flow options.
func Baseline() RunOptions { return RunOptions{} }

// NewNetwork builds a zero-weight GRU network.
func NewNetwork(input, hidden, layers, classes int) *Network {
	return &Network{recurrent.NewNetwork(input, hidden, layers, classes, NewLayer)}
}

// CollectPredictors runs the exact flow over the sequences and returns
// the Eq. 6 mean-link predictor per layer (GRUs have no cell state, so
// only the H vector is meaningful).
func CollectPredictors(n *Network, samples [][]tensor.Vector) []intercell.Predictor {
	return recurrent.CollectPredictors(&n.Network, samples)
}

// Calibrate applies the same pseudo-training adjustments to a GRU that
// lstm.Calibrate applies to an LSTM; see recurrent.Calibrate.
func Calibrate(n *Network, seqs [][]tensor.Vector, spreadFor func(layer int) float64) {
	recurrent.Calibrate(&n.Network, seqs, spreadFor)
}

// InitRandom fills the network with the synthetic trained-weight
// distribution, mirroring the LSTM generator: linkScale sets the
// per-layer recurrent magnitude, carryFrac the fraction of units whose
// update-gate bias sits low (z ~ 0, DRS-carry-prone).
func (n *Network) InitRandom(r *rng.RNG, linkScale func(layer int) float64, carryFrac float64) {
	for li, l := range n.Layers {
		d := 1.0
		if linkScale != nil {
			d = linkScale(li)
		}
		initLayer(r.Split(), l, d, carryFrac)
	}
	n.InitHead(r.Split())
}

func initLayer(r *rng.RNG, l *Layer, dTarget, carryFrac float64) {
	defer l.Invalidate()
	h := float64(l.Hidden)
	sigmaU := dTarget / (h * 0.7979)
	for _, u := range []*tensor.Matrix{l.Uz, l.Ur, l.Uh} {
		for i := range u.Data {
			u.Data[i] = r.NormF32(0, sigmaU)
		}
	}
	sigmaW := 1.2 / recurrent.Sqrtf(float64(l.Input))
	for _, w := range l.InputWeights() {
		for i := range w.Data {
			w.Data[i] = r.NormF32(0, sigmaW)
		}
	}
	// Update-gate bias spread places ~carryFrac of units below the
	// mid DRS threshold (z < 0.25: carry-dominated, DRS-trivial
	// candidate rows). The anchor is deliberately higher than the
	// LSTM's: a unit with z pinned at 0 carries its state forever, so
	// its context link can never be cut — keeping most carry units at
	// z ~ 0.1-0.25 bounds the carry memory to a few cells.
	muZ := recurrent.Logit(0.25) - recurrent.Probit(carryFrac)*2.0
	for j := 0; j < l.Hidden; j++ {
		l.Bz[j] = r.NormF32(muZ, 1.6)
		l.Br[j] = r.NormF32(0.2, 0.4)
		l.Bh[j] = r.NormF32(0, 0.3)
	}
}

// The GRU cell as the forward core sees it (recurrent.Cell). A wx row is
// [xz|xr|xh]; the first recurrent stage is z and r, which share the
// operand h_{t-1}; the second is the candidate's U_h, whose operand
// r_t ⊙ h_{t-1} exists only after the reset gate — and which is the
// DRS-skippable block; the state is h alone.

var _ recurrent.Cell = (*Layer)(nil)

// Shape declares three gates, a two-block first stage at the start of
// the wx row and a one-block state.
func (l *Layer) Shape() recurrent.Shape {
	return recurrent.Shape{Hidden: l.Hidden, Input: l.Input, Gates: 3, First: 2, State: 1}
}

// InputWeights returns the three input projections in z,r,h order.
func (l *Layer) InputWeights() []*tensor.Matrix { return []*tensor.Matrix{l.Wz, l.Wr, l.Wh} }

// RecurrentWeights splits U into the z,r block and the candidate block.
func (l *Layer) RecurrentWeights() (first, second []*tensor.Matrix) {
	return []*tensor.Matrix{l.Uz, l.Ur}, []*tensor.Matrix{l.Uh}
}

// FirstGates computes z_t and r_t into g = [z|r]; z gates the DRS
// decision. Both blocks' pre-activations go into g, then one sigmoid
// pass covers them.
func (l *Layer) FirstGates(g, wx, a tensor.Vector) {
	h := l.Hidden
	z, r := g[:h], g[h:]
	xz, xr := wx[:h], wx[h:2*h]
	uz, ur := a[:h], a[h:]
	for j := 0; j < h; j++ {
		z[j] = xz[j] + uz[j] + l.Bz[j]
		r[j] = xr[j] + ur[j] + l.Br[j]
	}
	tensor.SigmoidVec(g, g)
}

// Operand builds r_t ⊙ h_{t-1} in dst.
func (l *Layer) Operand(dst, g, h tensor.Vector) tensor.Vector {
	tensor.Mul(dst, g[l.Hidden:], h)
	return dst
}

// Update blends the candidate into h in place over the kept rows, the
// ascending list the second stage computed; every other row was skipped
// and carries: h_t[j] ~ h_{t-1}[j] since z[j] ~ 0. The walk gathers the
// kept rows' pre-activations into a in place (kept row j lands at
// k ≤ j, after a[k] was read), so the candidate's tanh is one pass over
// the kept rows only, then blends them back into h. No row is tested,
// and a skipped row's product is never read.
func (l *Layer) Update(st, wx, a, g tensor.Vector, kept []int) {
	h := l.Hidden
	z, xh := g[:h], wx[2*h:]
	cand := a[:len(kept)]
	for k, j := range kept {
		cand[k] = xh[j] + a[j] + l.Bh[j]
	}
	tensor.TanhVec(cand, cand)
	for k, j := range kept {
		st[j] = (1-z[j])*st[j] + z[j]*cand[k]
	}
}

// LinkRelevance scores a link with the GRU adjustment of Algorithm 2.
func (l *Layer) LinkRelevance() func(wx tensor.Vector) float64 {
	an, h := newAnalyzer(l), l.Hidden
	return func(wx tensor.Vector) float64 {
		return an.relevance(wx[:h], wx[h:2*h], wx[2*h:])
	}
}

// InitPredicted starts a sub-layer from the predicted hidden state.
func (l *Layer) InitPredicted(st tensor.Vector, p intercell.Predictor) { copy(st, p.H) }
