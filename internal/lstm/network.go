// Package lstm is the LSTM cell of the inference library: layer weights,
// the cell math (Eqs. 1-5 of the paper) and the synthetic "trained"
// weight generator. The four execution modes the
// paper evaluates — the baseline cuDNN-style flow (Algorithm 1), the
// inter-cell tissue-parallel flow (§IV), the intra-cell Dynamic Row Skip
// flow (Algorithm 3), and their combination — live in the shared forward
// core, internal/recurrent, which Network embeds.
//
// All modes run real float32 arithmetic, so accuracy under approximation
// is measured rather than asserted: the optimized flows produce genuinely
// different numbers and the accuracy harness scores them against the
// exact baseline.
package lstm

import (
	"mobilstm/internal/intercell"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// Layer holds the weights of one LSTM layer, shared by every unrolled
// cell of that layer (the sharing that makes the re-load problem).
type Layer struct {
	Hidden, Input int

	// W_g: input projections (Hidden x Input).
	Wf, Wi, Wc, Wo *tensor.Matrix
	// U_g: recurrent projections (Hidden x Hidden) — the united
	// U_{f,i,c,o} of the paper is their row-wise concatenation.
	Uf, Ui, Uc, Uo *tensor.Matrix
	// b_g: biases (Hidden).
	Bf, Bi, Bc, Bo tensor.Vector

	// PackedCache lazily holds the united row-wise copies of W_g and U_g
	// the forward core consumes. Mutating any weight matrix after
	// construction requires Invalidate.
	recurrent.PackedCache

	// gate points at the owning Network's Gate, so a post-construction
	// n.Gate = … reaches the cell arithmetic; nil (a standalone NewLayer)
	// means the exact sigmoid.
	gate *tensor.Activation
}

// NewLayer returns a zero-weight layer of the given shape.
func NewLayer(hidden, input int) *Layer {
	return &Layer{
		Hidden: hidden, Input: input,
		Wf: tensor.NewMatrix(hidden, input), Wi: tensor.NewMatrix(hidden, input),
		Wc: tensor.NewMatrix(hidden, input), Wo: tensor.NewMatrix(hidden, input),
		Uf: tensor.NewMatrix(hidden, hidden), Ui: tensor.NewMatrix(hidden, hidden),
		Uc: tensor.NewMatrix(hidden, hidden), Uo: tensor.NewMatrix(hidden, hidden),
		Bf: tensor.NewVector(hidden), Bi: tensor.NewVector(hidden),
		Bc: tensor.NewVector(hidden), Bo: tensor.NewVector(hidden),
	}
}

// UnitedUBytes is the footprint of the united recurrent matrix
// U_{f,i,c,o} — the per-cell re-load the inter-cell optimization targets.
func (l *Layer) UnitedUBytes() int64 {
	return 4 * int64(l.Hidden) * int64(l.Hidden) * 4
}

// UnitedWBytes is the footprint of the united input matrix W_{f,i,c,o}.
func (l *Layer) UnitedWBytes() int64 {
	return 4 * int64(l.Hidden) * int64(l.Input) * 4
}

// UMatrices returns the four recurrent matrices in f,i,c,o order.
func (l *Layer) UMatrices() []*tensor.Matrix {
	return []*tensor.Matrix{l.Uf, l.Ui, l.Uc, l.Uo}
}

// Analyzer builds the Algorithm 2 relevance analyzer for this layer.
func (l *Layer) Analyzer() *intercell.Analyzer {
	return intercell.NewAnalyzer(l.Uf, l.Ui, l.Uc, l.Uo, l.Bf, l.Bi, l.Bc, l.Bo)
}

// Network is a stack of LSTM layers with a linear classification head on
// the final hidden state. The forward entry points (Run, RunBatch,
// Classify, CheckSequence and their error-returning forms) are the
// embedded core's.
type Network struct {
	recurrent.Network[*Layer]
	// Gate is the activation used for the three gates; the paper
	// analyses both the exact sigmoid and the hard sigmoid (Fig. 7).
	Gate tensor.Activation
}

// The forward core's option and trace types, under the names this
// package has always exported them.
type (
	RunOptions = recurrent.RunOptions
	Trace      = recurrent.Trace
	LayerTrace = recurrent.LayerTrace
)

// Baseline returns options for the exact Algorithm 1 flow.
func Baseline() RunOptions { return RunOptions{} }

// NewNetwork builds a zero-weight network: layers stacked hidden->hidden
// after an input->hidden first layer, and a classification head.
func NewNetwork(input, hidden, layers, classes int) *Network {
	n := &Network{Gate: tensor.ActSigmoid}
	n.Network = recurrent.NewNetwork(input, hidden, layers, classes, func(hidden, input int) *Layer {
		l := NewLayer(hidden, input)
		l.gate = &n.Gate
		return l
	})
	return n
}

// CollectPredictors executes the unmodified network over a set of
// sequences and returns the Eq. 6 predicted context link (h and c) per
// layer.
func CollectPredictors(n *Network, samples [][]tensor.Vector) []intercell.Predictor {
	return recurrent.CollectPredictors(&n.Network, samples)
}

// Calibrate adjusts a randomly-initialized network the way training
// would; see recurrent.Calibrate.
func Calibrate(n *Network, seqs [][]tensor.Vector, spreadFor func(layer int) float64) {
	recurrent.Calibrate(&n.Network, seqs, spreadFor)
}

// InitRandom fills the network with the synthetic "trained" weight
// distribution described in DESIGN.md §5. The generator knobs:
//
//   - linkScale controls the per-layer magnitude of the recurrent
//     matrices and therefore the D_g row norms Algorithm 2 sees; it grows
//     with depth (deeper layers carry stronger context links, the Fig. 15
//     observation).
//   - trivialFrac is the fraction of hidden units whose output-gate bias
//     sits deep in the sigmoid's low saturation, making their rows
//     DRS-trivial for most inputs (the Fig. 16 compression ratio).
func (n *Network) InitRandom(r *rng.RNG, linkScale func(layer int) float64, trivialFrac float64) {
	for li, l := range n.Layers {
		d := 1.0
		if linkScale != nil {
			d = linkScale(li)
		}
		// Expected RMS of this layer's inputs: the first layer sees raw
		// token embeddings (unit scale with occasional strong boundary
		// tokens), deeper layers see bounded hidden outputs. Trained
		// networks scale their input projections to use the activations'
		// sensitive range regardless; the generator does the same.
		inputRMS := 1.8
		if li > 0 {
			inputRMS = 0.25
		}
		initLayer(r.Split(), l, d, trivialFrac, inputRMS)
	}
	n.InitHead(r.Split())
}

func initLayer(r *rng.RNG, l *Layer, dTarget, trivialFrac, inputRMS float64) {
	defer l.Invalidate()
	h := float64(l.Hidden)
	// Recurrent matrices: choose sigma so the expected per-row L1 norm
	// E[D] = H * sigma * sqrt(2/pi) equals dTarget.
	sigmaU := dTarget / (h * 0.7979)
	for _, u := range l.UMatrices() {
		for i := range u.Data {
			u.Data[i] = r.NormF32(0, sigmaU)
		}
	}
	// Input projections: pre-activation contributions with spread ~1.2
	// at the layer's expected input magnitude, so cells land in a mix of
	// sensitive and saturated regions.
	sigmaW := 1.2 / (inputRMS * recurrent.Sqrtf(float64(l.Input)))
	for _, w := range l.InputWeights() {
		for i := range w.Data {
			w.Data[i] = r.NormF32(0, sigmaW)
		}
	}
	// Biases: the forget gate hovers near half-open so state memory
	// decays over a few cells (bounding how far a predicted-link error
	// propagates, as in trained LSTMs whose forget gates are selective);
	// input and candidate sit near zero. The output-gate bias is spread
	// so the trivial-row population grows smoothly with the DRS
	// threshold: its mean is placed so that P(o_t < 0.15) ~ trivialFrac
	// under the typical pre-activation spread sigma_total ~ 2.
	const sigmaTotal = 2.0
	muO := recurrent.Logit(0.15) - recurrent.Probit(trivialFrac)*sigmaTotal
	for j := 0; j < l.Hidden; j++ {
		l.Bf[j] = r.NormF32(0.4, 0.5)
		l.Bi[j] = r.NormF32(0, 0.3)
		l.Bc[j] = r.NormF32(0, 0.3)
		l.Bo[j] = r.NormF32(muO, 1.6)
	}
}
