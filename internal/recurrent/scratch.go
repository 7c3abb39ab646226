package recurrent

import "mobilstm/internal/tensor"

// views carves n consecutive w-wide vectors out of one fresh slab.
func views(n, w int) []tensor.Vector {
	buf := make([]float32, n*w)
	out := make([]tensor.Vector, n)
	for i := range out {
		out[i] = buf[i*w : (i+1)*w]
	}
	return out
}

// heads returns the leading h elements of every vector in vs — the DRS
// gate of each first-stage gate block.
func heads(vs []tensor.Vector, h int) []tensor.Vector {
	out := make([]tensor.Vector, len(vs))
	for i, v := range vs {
		out[i] = v[:h]
	}
	return out
}

// layerScratch is the arena behind one serial forward pass: every
// buffer the layer loop touches per cell is carved out of a few slabs
// sized once from the cell's Shape (and re-sized only if a later call
// sees a bigger shape). Hidden outputs use two ping-pong halves because
// layer k+1 reads layer k's outputs while producing its own.
type layerScratch struct {
	sh       Shape // widths the slabs are carved for (Input sizes nothing)
	cells    int   // cells of the current layer
	capCells int   // slab capacity in cells

	wxFull *tensor.Matrix // capCells × Gates·h united W·x slab
	wx     *tensor.Matrix // first `cells` rows of wxFull

	a1, a2  tensor.Vector   // U₁·h_{t-1} and U₂·operand, views into one slab
	a2s     []tensor.Vector // a2's h-wide blocks: the PackedGemvRows destinations
	operand tensor.Vector   // second-stage operand, for cells that build one
	skip    []bool          // DRS mask reused across tissues

	gates []tensor.Vector // per-tissue-member first-stage gates (First·h)
	drs   []tensor.Vector // gates[i][:h]: the gate DRS thresholds

	hs   []tensor.Vector // 2·capCells hidden outputs: the ping-pong halves
	ping bool

	states []tensor.Vector // per-sub-layer state (State·h)
	subOf  []int
}

func newLayerScratch(sh Shape, cells int) *layerScratch {
	sc := &layerScratch{}
	sc.reset(sh, cells)
	return sc
}

// reset prepares the arena for a layer of the given shape, reallocating
// the slabs only when the shape outgrows them.
func (sc *layerScratch) reset(sh Shape, cells int) {
	sh.Input = 0
	if sh != sc.sh || cells > sc.capCells {
		c, h, second := cells, sh.Hidden, sh.Gates-sh.First
		sc.sh, sc.capCells = sh, c
		sc.wxFull = tensor.NewMatrix(c, sh.Gates*h)
		prod := tensor.NewVector((sh.Gates + 1) * h)
		sc.a1, sc.a2, sc.operand = prod[:sh.First*h], prod[sh.First*h:sh.Gates*h], prod[sh.Gates*h:]
		sc.a2s = make([]tensor.Vector, second)
		for k := range sc.a2s {
			sc.a2s[k] = sc.a2[k*h : (k+1)*h]
		}
		sc.skip = make([]bool, h)
		sc.gates = views(c, sh.First*h)
		sc.drs = heads(sc.gates, h)
		sc.hs = views(2*c, h)
		sc.states = views(c, sh.State*h)
		sc.subOf = make([]int, c)
		sc.wx = nil
	}
	if sc.wx == nil || sc.wx.Rows != cells {
		sc.wx = sc.wxFull.RowBlock(0, cells)
	}
	sc.cells = cells
}

// nextHS flips the ping-pong and returns the hidden-output views for the
// current layer: the previous layer's outputs (this layer's inputs)
// stay valid in the other half.
func (sc *layerScratch) nextHS() []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hs[:sc.cells]
	}
	return sc.hs[sc.capCells : sc.capCells+sc.cells]
}

// batchScratch is the arena behind one batched forward pass. Flat slabs
// hold one row per cell of every member (wx, the hidden ping-pong);
// per-member slabs hold one row per batch member (states, first-stage
// gates, operands, DRS masks). Like layerScratch it is growth-only.
type batchScratch struct {
	sh         Shape
	capMembers int
	total      int // sum of member lengths
	capTotal   int

	lens []int // member lengths, fixed for the whole call
	offs []int // member cell offsets into the flat slabs

	wxFull *tensor.Matrix // capTotal × Gates·h united W·x slab
	wx     *tensor.Matrix // first `total` rows; row offs[i]+t = member i cell t

	// Batched recurrent products for the active members of one step:
	// row k is active member k's U₁·h (a1B) or U₂·operand (a2B). The
	// headers are re-headed per step so the hot loop allocates nothing.
	a1Buf, a2Buf []float32
	a1B, a2B     tensor.Matrix

	gates    []tensor.Vector // per-member first-stage gates (First·h)
	drs      []tensor.Vector // gates[i][:h]
	operands []tensor.Vector // per-member second-stage operand buffers
	masks    [][]bool        // per-member DRS mask buffers
	skips    [][]bool        // active members' masks for PackedGemmRows

	hs   []tensor.Vector // 2·capTotal flat hidden outputs: the ping-pong halves
	ping bool

	states []tensor.Vector // per-member state (State·h)

	active []int           // active member indices at the current step
	gather []tensor.Vector // active members' h_{t-1}, then their operands
}

// newBatchScratch sizes an arena for the given member lengths.
func newBatchScratch(sh Shape, lens []int) *batchScratch {
	sc := &batchScratch{}
	sc.reset(sh, lens)
	return sc
}

// reset prepares the arena for a batch of the given shape, reallocating
// the slabs only when the shape outgrows them.
func (sc *batchScratch) reset(sh Shape, lens []int) {
	sh.Input = 0
	members := len(lens)
	total := 0
	for _, ln := range lens {
		total += ln
	}
	if sh != sc.sh || members > sc.capMembers || total > sc.capTotal {
		cm, ct := members, total
		if sh == sc.sh {
			cm, ct = max(cm, sc.capMembers), max(ct, sc.capTotal)
		}
		h, second := sh.Hidden, sh.Gates-sh.First
		sc.sh, sc.capMembers, sc.capTotal = sh, cm, ct
		sc.wxFull = tensor.NewMatrix(ct, sh.Gates*h)
		sc.a1Buf = make([]float32, cm*sh.First*h)
		sc.a2Buf = make([]float32, cm*second*h)
		sc.gates = views(cm, sh.First*h)
		sc.drs = heads(sc.gates, h)
		sc.operands = views(cm, h)
		maskBuf := make([]bool, cm*h)
		sc.masks = make([][]bool, cm)
		for i := range sc.masks {
			sc.masks[i] = maskBuf[i*h : (i+1)*h]
		}
		sc.skips = make([][]bool, cm)
		sc.hs = views(2*ct, h)
		sc.states = views(cm, sh.State*h)
		sc.active = make([]int, cm)
		sc.gather = make([]tensor.Vector, cm)
		sc.lens = make([]int, 0, cm)
		sc.offs = make([]int, 0, cm)
		sc.wx = nil
	}
	sc.lens = append(sc.lens[:0], lens...)
	sc.offs = sc.offs[:0]
	off := 0
	for _, ln := range lens {
		sc.offs = append(sc.offs, off)
		off += ln
	}
	if sc.wx == nil || sc.wx.Rows != total {
		sc.wx = sc.wxFull.RowBlock(0, total)
	}
	sc.total = total
}

// nextHS flips the flat ping-pong and returns the per-cell hidden
// views of the current layer.
func (sc *batchScratch) nextHS() []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hs[:sc.total]
	}
	return sc.hs[sc.capTotal : sc.capTotal+sc.total]
}

// a1View re-heads the scratch-owned first-stage destination header over
// the first rows of its slab — the active-set view, without allocating.
func (sc *batchScratch) a1View(rows int) *tensor.Matrix {
	cols := sc.sh.First * sc.sh.Hidden
	sc.a1B.Rows, sc.a1B.Cols, sc.a1B.Data = rows, cols, sc.a1Buf[:rows*cols]
	return &sc.a1B
}

// a2View is a1View for the second-stage destination.
func (sc *batchScratch) a2View(rows int) *tensor.Matrix {
	cols := (sc.sh.Gates - sc.sh.First) * sc.sh.Hidden
	sc.a2B.Rows, sc.a2B.Cols, sc.a2B.Data = rows, cols, sc.a2Buf[:rows*cols]
	return &sc.a2B
}
