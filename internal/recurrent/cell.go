// Package recurrent is the one forward core behind the lstm and gru
// packages. The paper states its two mechanisms — inter-cell tissue
// formation (§IV) and intra-cell Dynamic Row Skip (§V) — once and notes
// they carry to GRUs "with simple adjustment" (§II-B); this package
// holds everything in the forward path that is not cell arithmetic
// (options and traces, validation, the Run/RunBatch entry points, the
// scratch arena, the layer loop, the kernel-chain binding, the
// united-weight cache, predictor collection and calibration) and is
// parameterized by a Cell: the few facts and element-wise steps in
// which an LSTM and a GRU layer differ.
//
// There is one layer loop. Each of a pass's members — one sequence for
// Run, B for RunBatch — is divided into sub-layers and aligned into
// tissues (under Inter at its weak links, otherwise one sub-layer of
// single-cell tissues), and step k advances tissue k of every member as
// one group: each recurrent stage is one batched kernel over the
// group's cells, so a tissue and a batch load U once alike. The layer
// wavefront (RunWavefrontE) takes the same steps for one sequence with
// the stacked layers pipelined over goroutines, four cells at a time.
//
// Both cells run in two recurrent stages. The first-stage gates need
// only h_{t-1} and decide what the second stage may skip:
//
//	wx      = W · x_t                        (all cells up-front, one GEMM)
//	gates   = FirstGates(wx, U₁ · h_{t-1})   (LSTM: o;    GRU: z, r)
//	kept    = rows j with gates[j] ≥ α_intra (LSTM: o;    GRU: z)
//	operand = Operand(gates, h_{t-1})        (LSTM: h;    GRU: r ⊙ h)
//	state   = Update(wx, U₂ · operand, kept) (LSTM: f,i,c → c,h; GRU: ~h → h)
//
// Cell methods are called once per cell per stage, never per element,
// and every matrix product is the same row-dot chain whatever group
// issues it — which is what makes serial, tissue and batch execution
// bitwise interchangeable.
package recurrent

import (
	"sync"
	"sync/atomic"

	"mobilstm/internal/intercell"
	"mobilstm/internal/tensor"
)

// Shape declares a cell's sizes in units of the hidden size h.
type Shape struct {
	Hidden, Input int
	// Gates is the number of h-tall blocks in the united input
	// projection W (and so the width of a wx row): 4 for f,i,c,o; 3 for
	// z,r,h.
	Gates int
	// First is the number of blocks in the first-stage recurrent matrix
	// U₁; the remaining Gates-First blocks form the second-stage,
	// DRS-skippable U₂.
	First int
	// FirstAt is the block of a wx row where the First first-stage
	// blocks begin: at either end of the row, the second-stage blocks
	// filling the rest (LSTM [xf|xi|xc|xo]: 3; GRU [xz|xr|xh]: 0). The
	// same split cuts W into its first-stage rows W₁ and second-stage
	// rows W₂.
	FirstAt int
	// State is the number of h-wide blocks carried along a sub-layer;
	// the hidden output is always the first (LSTM h|c: 2, GRU h: 1).
	State int
}

// Cell is one recurrent layer as the core sees it. Vector arguments are
// core-owned scratch: wx is the cell's row of W·x (Gates·h), a the
// stage's recurrent product (First·h or (Gates-First)·h), g the
// first-stage gates (First·h, DRS gate leading), st the sub-layer state
// (State·h, hidden output leading).
type Cell interface {
	Shape() Shape
	// InputWeights returns W_g in wx-row order; RecurrentWeights returns
	// U_g split into the first-stage and second-stage blocks, each in
	// the order the cell slices the matching product.
	InputWeights() []*tensor.Matrix
	RecurrentWeights() (first, second []*tensor.Matrix)

	// FirstGates writes the gates that depend only on h_{t-1} into g.
	FirstGates(g, wx, a tensor.Vector)
	// Operand returns the second-stage input: h itself or a vector built
	// in dst.
	Operand(dst, g, h tensor.Vector) tensor.Vector
	// Update advances st by one cell. kept lists, ascending, the rows of
	// each h-tall block of a that the second stage computed (every row
	// without DRS); the others hold no product, and the cell applies its
	// own approximation to them (LSTM zeroes c and h, GRU carries h)
	// without reading them. The cell may overwrite a, which the core
	// does not read again.
	Update(st, wx, a, g tensor.Vector, kept []int)

	// LinkRelevance returns the Algorithm 2 score S of the context link
	// into a cell, as a function of that cell's wx row. The core builds
	// it once per packed build, beside the united weights.
	LinkRelevance() func(wx tensor.Vector) float64
	// InitPredicted loads st with the Eq. 6 predicted link that starts a
	// sub-layer after a cut.
	InitPredicted(st tensor.Vector, p intercell.Predictor)

	// Invalidate and the cache accessor come from embedding PackedCache.
	Invalidate()
	cache() *PackedCache
}

// packedWeights holds the united row-wise weight matrices of one layer
// — the host-side counterpart of the W_{f,i,c,o}/U_{f,i,c,o}
// concatenation the paper's GPU kernels consume. Packing once turns the
// per-gate weight streams of every cell into one contiguous stream per
// stage.
type packedWeights struct {
	w      *tensor.Matrix // Gates·h × Input
	w1, w2 *tensor.Matrix // W's first-stage and second-stage rows (views of w)
	u1, u2 *tensor.Matrix // First·h × h and (Gates-First)·h × h
	// relevance is the layer's LinkRelevance scorer, whose per-row norms
	// of U are built with the united copies and dropped with them.
	relevance func(wx tensor.Vector) float64
}

// PackedCache is the per-layer state a layer embeds to become a Cell:
// the united-weight cache and the pool of forward arenas. The zero
// value means "not built" and an empty pool; the mutex only guards the
// build.
type PackedCache struct {
	mu     sync.Mutex
	packed atomic.Pointer[packedWeights]
	// arenas recycles the forward arenas of passes over this layer (see
	// arena): weights do not size an arena, so Invalidate keeps them.
	arenas sync.Pool
}

// Invalidate drops the cached united matrices. Every code path that
// mutates W_g or U_g after construction (calibration rescaling, random
// re-initialization, tests poking weights directly) must call it, or
// later runs keep computing with the stale united copy.
func (c *PackedCache) Invalidate() { c.packed.Store(nil) }

func (c *PackedCache) cache() *PackedCache { return c }

// packed returns the layer's united matrices, building them on first
// use. Reads are a lock-free atomic load so concurrent serve workers
// sharing one network never contend; the build is serialized under the
// mutex with a double-check, so racing first callers agree on one copy.
func packed(l Cell) *packedWeights {
	c := l.cache()
	if p := c.packed.Load(); p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.packed.Load(); p != nil {
		return p
	}
	first, second := l.RecurrentWeights()
	p := &packedWeights{
		w:  tensor.Pack(l.InputWeights()...),
		u1: tensor.Pack(first...),
		u2: tensor.Pack(second...),

		relevance: l.LinkRelevance(),
	}
	c1, c2 := l.Shape().wxCols()
	p.w1, p.w2 = p.w.RowBlock(c1, c1+p.u1.Rows), p.w.RowBlock(c2, c2+p.u2.Rows)
	c.packed.Store(p)
	return p
}

// wxCols returns where the stages' blocks begin in a wx row (and their
// rows in W): c1 for the first stage, c2 for the second.
func (sh Shape) wxCols() (c1, c2 int) {
	h := sh.Hidden
	switch sh.FirstAt {
	case 0:
		return 0, sh.First * h
	case sh.Gates - sh.First:
		return sh.FirstAt * h, 0
	}
	tensor.Panicf("recurrent: first stage at block %d of %d splits the second stage", sh.FirstAt, sh.Gates)
	return 0, 0
}
