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

// forwardScratch is the one arena behind every forward pass over B ≥ 1
// members (Run is one member, RunBatch B). Flat slabs hold one row per
// cell of every member, its sequences end to end — member i's cell t at
// members[i].off+t; group slabs hold one row per slot of the largest
// group a step can form. Everything is carved out of a handful of
// allocations sized from the cell's Shape and the pass, and regrown only
// when a later pass outgrows them. Hidden outputs use two ping-pong
// halves because layer k+1 reads layer k's outputs while producing its
// own.
type forwardScratch struct {
	sh      Shape       // widths the slabs are carved for (Input sizes nothing)
	cap     scratchSize // what the slabs hold
	members []member

	wxBuf []float32
	wx    tensor.Matrix   // cells × Gates·h united W·x over the first rows of wxBuf
	hs    []tensor.Vector // 2·cap.cells hidden outputs: the ping-pong halves
	ping  bool

	// The group of one step: slot s holds one cell, and the cells of one
	// tissue take consecutive slots. prod is re-headed over the first
	// rows of prodBuf for each stage's recurrent product.
	slots        []slot
	prodBuf      []float32
	prod         tensor.Matrix
	gates, drs   []tensor.Vector  // first-stage gates (First·h) and their DRS heads
	operands, in []tensor.Vector  // operand buffers; each stage's kernel inputs
	keptBuf      []int            // one h-row kept list per tissue of the group
	every        []int            // 0..h-1: the kept list without DRS
	masks        []tensor.RowMask // each slot's view of its tissue's kept list
	ends         []int            // the slot that closes each tissue of the group

	states []tensor.Vector // every member's sub-layer states (State·h)
	subOf  []int           // sub-layer of each flat cell
	units  [][]int         // units[k] = {k}: a member's tissues without Inter
}

// scratchSize is what one pass needs: cells of all members, group slots
// (Σ min(len, MTS) under Inter — a tissue holds at most MTS cells — and
// one per member otherwise), members, and sub-layer states (under Inter
// up to one per cell, otherwise one per member).
type scratchSize struct{ cells, slots, members, states int }

// member is one sequence of the pass and its division for the current
// layer. reset leaves it one sub-layer whose tissues are its single
// cells — the division without Inter, built from arena views.
type member struct {
	off, n  int
	tissues [][]int         // cell indices, tissue by tissue
	subOf   []int           // sub-layer of each cell
	states  []tensor.Vector // one per sub-layer
}

// slot is one cell of a group: its flat row, its index within its
// member, and its sub-layer state.
type slot struct {
	row, cell int
	st        tensor.Vector
}

// reset prepares the arena for a pass over sequences of the given
// lengths under opt, regrowing the slabs only when the pass outgrows
// them.
func (sc *forwardScratch) reset(sh Shape, opt RunOptions, lens ...int) {
	sh.Input = 0
	need := scratchSize{members: len(lens)}
	for _, n := range lens {
		need.cells += n
		if opt.Inter {
			need.slots, need.states = need.slots+min(n, opt.MTS), need.states+n
		} else {
			need.slots, need.states = need.slots+1, need.states+1
		}
	}
	if sh == sc.sh {
		need = scratchSize{max(need.cells, sc.cap.cells), max(need.slots, sc.cap.slots),
			max(need.members, sc.cap.members), max(need.states, sc.cap.states)}
	}
	if sh != sc.sh || need != sc.cap {
		sc.grow(sh, need)
	}
	sc.members = sc.members[:0]
	off, s := 0, 0
	for _, n := range lens {
		states := 1
		if opt.Inter {
			states = n
		}
		sc.members = append(sc.members, member{off, n, sc.units[:n], sc.subOf[off : off+n], sc.states[s : s+states]})
		off, s = off+n, s+states
	}
	clear(sc.subOf[:off])
	sc.wx.Rows, sc.wx.Data = off, sc.wxBuf[:off*sc.wx.Cols]
}

// grow allocates the slabs for the shape and size: every float and
// every vector header of the arena is carved out of one allocation each.
func (sc *forwardScratch) grow(sh Shape, c scratchSize) {
	h, first, second := sh.Hidden, sh.First*sh.Hidden, (sh.Gates-sh.First)*sh.Hidden
	f := make([]float32, c.cells*(sh.Gates+2)*h+c.slots*(max(first, second)+first+h)+c.states*sh.State*h)
	v := make([]tensor.Vector, 2*c.cells+4*c.slots+c.states)
	floats := func(n int) []float32 {
		out := f[:n:n]
		f = f[n:]
		return out
	}
	carve := func(n, w int) []tensor.Vector {
		out := v[:n:n]
		v = v[n:]
		for i := range out {
			out[i] = floats(w)
		}
		return out
	}
	sc.sh, sc.cap = sh, c
	sc.wxBuf, sc.wx = floats(c.cells*sh.Gates*h), tensor.Matrix{Cols: sh.Gates * h}
	sc.hs = carve(2*c.cells, h)
	sc.prodBuf = floats(c.slots * max(first, second))
	sc.gates, sc.operands = carve(c.slots, first), carve(c.slots, h)
	sc.drs, sc.in = carve(c.slots, 0), carve(c.slots, 0)
	for i, g := range sc.gates {
		sc.drs[i] = g[:h]
	}
	sc.states = carve(c.states, sh.State*h)

	ints := make([]int, c.members+2*c.cells+(c.members+1)*h)
	sc.ends, sc.subOf = ints[:0:c.members], ints[c.members:c.members+c.cells]
	cells := ints[c.members+c.cells : c.members+2*c.cells]
	sc.keptBuf, sc.every = ints[c.members+2*c.cells:len(ints)-h], ints[len(ints)-h:]
	for j := range sc.every {
		sc.every[j] = j
	}
	sc.masks = make([]tensor.RowMask, c.slots)
	sc.units = make([][]int, c.cells)
	for k := range cells {
		cells[k] = k
		sc.units[k] = cells[k : k+1]
	}
	sc.slots = make([]slot, c.slots)
	sc.members = make([]member, 0, c.members)
}

// nextHS flips the ping-pong and returns the hidden-output views for the
// current layer: the previous layer's outputs (this layer's inputs)
// stay valid in the other half.
func (sc *forwardScratch) nextHS() []tensor.Vector {
	sc.ping = !sc.ping
	if sc.ping {
		return sc.hs[:sc.wx.Rows]
	}
	return sc.hs[sc.cap.cells : sc.cap.cells+sc.wx.Rows]
}

// product re-heads the product matrix over the first n rows of its slab,
// cols wide: one recurrent stage's destination for an n-slot group.
func (sc *forwardScratch) product(n, cols int) *tensor.Matrix {
	sc.prod = tensor.Matrix{Rows: n, Cols: cols, Data: sc.prodBuf[:n*cols]}
	return &sc.prod
}
