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
//
// An arena outlives its pass: a pass takes one from a layer's pool
// (PackedCache.arena) and hands it back when it ends, so a steady-state
// pass allocates none. Nothing a pass returns — logits, a Trace field —
// may be a view of it. reset never shrinks an arena of the same shape,
// so a pooled arena keeps the size of the largest pass it has served for
// as long as passes keep taking it, and its input headers (flat, xs,
// cellIn, in) keep its last pass's inputs reachable until a later pass
// overwrites them.
type forwardScratch struct {
	sh      Shape       // widths the slabs are carved for (Input sizes nothing)
	cap     scratchSize // what the slabs hold
	members []member

	flat  []tensor.Vector // a multi-member pass's layer-0 inputs end to end (concat)
	wxBuf []float32
	wx    tensor.Matrix   // cells × Gates·h united W·x over the first rows of wxBuf
	hs    []tensor.Vector // 2·cap.cells hidden outputs: the ping-pong halves
	ping  bool

	// deferred is how many leading steps of every layer compute their
	// group's second-stage W·x at step time (see keptGroupMin): each
	// member's first min(n, deferred) cells take only W₁·x up front. xs
	// is the current layer's inputs; cellDst and cellIn, one header per
	// cell, list the destinations and inputs of an up-front stage GEMM
	// (carved, like union, wx2Rows and wx2, only for a pass that defers).
	deferred        int
	xs              []tensor.Vector
	cellDst, cellIn []tensor.Vector

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
	// A deferred step's four-member union of kept rows (h) and its
	// tiling over W₂'s blocks ((Gates-First)·h); wx2 holds each slot's
	// second-stage block of its wx row.
	union, wx2Rows []int
	wx2            []tensor.Vector

	states []tensor.Vector // every member's sub-layer states (State·h)
	subOf  []int           // sub-layer of each flat cell
	units  [][]int         // units[k] = {k}: a member's tissues without Inter
}

// scratchSize is what one pass needs: cells of all members, group slots
// (Σ min(len, MTS) under Inter — a tissue holds at most MTS cells — and
// one per member otherwise), members, sub-layer states (under Inter up
// to one per cell, otherwise one per member), and whether it defers a
// step (the step-time W₂·x slabs).
type scratchSize struct {
	cells, slots, members, states int
	deferring                     bool
}

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

// arena takes a forward arena from the layer's pool, or a new one when
// the pool is empty. The pass hands it back with release once it ends,
// a pass that panics included. sync.Pool drops only an arena that no
// pass takes across two garbage collections.
func (c *PackedCache) arena() *forwardScratch {
	if sc, ok := c.arenas.Get().(*forwardScratch); ok {
		return sc
	}
	return new(forwardScratch)
}

// release returns an arena to the layer's pool for a later pass.
func (c *PackedCache) release(sc *forwardScratch) { c.arenas.Put(sc) }

// reset prepares the arena for a pass over sequences of the given
// lengths under opt, regrowing the slabs only when the pass outgrows
// them.
func (sc *forwardScratch) reset(sh Shape, opt RunOptions, lens ...int) {
	sh.Input = 0
	sc.deferred = 0
	if opt.Intra && !opt.Inter {
		sc.deferred = deferredSteps(lens)
	}
	need := scratchSize{members: len(lens), deferring: sc.deferred > 0}
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
			max(need.members, sc.cap.members), max(need.states, sc.cap.states),
			need.deferring || sc.cap.deferring}
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

// keptGroupMin is the smallest lockstep group whose second-stage W·x
// runs at step time, four members at a time over the union of their
// kept rows (projectKept), instead of up front over every row. A
// gathered block call costs about what a contiguous one does per listed
// row, and serves four members whatever their number, so the union must
// be small against the members it serves: at the served PTB point
// (h = 192, Intra at AO set 5, α = 0.225) a member keeps ~36 % of the
// rows and four keep ~56 %. Measured on windows of the served corpus at
// that point (one core of a 2-vCPU AVX-512 Xeon, the two settings
// alternated window by window): step time against up front, windows of
// four −6 % (median per-window ratio 0.95) and of eight and sixteen
// −4 to −6 %, groups of two +7 %; a minimum of three against four, −2 %
// on windows of three at the served point but +6 % at α = 0.1, where a
// member keeps ~54 % and three ~68 %.
const keptGroupMin = 4

// deferredSteps returns how many leading steps of a pass over sequences
// of the given lengths have a group of at least keptGroupMin members:
// the keptGroupMin-th longest length, or 0 for a smaller pass. Lengths
// only shrink the group, so those steps come first.
func deferredSteps(lens []int) int {
	k := 0
	for _, n := range lens {
		longer := 0
		for _, m := range lens {
			if m >= n {
				longer++
			}
		}
		if longer >= keptGroupMin {
			k = max(k, n)
		}
	}
	return k
}

// grow allocates the slabs for the shape and size: every float and
// every vector header of the arena is carved out of one allocation each.
func (sc *forwardScratch) grow(sh Shape, c scratchSize) {
	h, first, second := sh.Hidden, sh.First*sh.Hidden, (sh.Gates-sh.First)*sh.Hidden
	d := 0 // 1 where the pass defers a step
	if c.deferring {
		d = 1
	}
	f := make([]float32, c.cells*(sh.Gates+2)*h+c.slots*(max(first, second)+first+h)+c.states*sh.State*h)
	v := make([]tensor.Vector, (3+2*d)*c.cells+(4+d)*c.slots+c.states)
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
	sc.flat, sc.hs = carve(c.cells, 0), carve(2*c.cells, h)
	sc.cellDst, sc.cellIn = carve(d*c.cells, 0), carve(d*c.cells, 0)
	sc.prodBuf = floats(c.slots * max(first, second))
	sc.gates, sc.operands = carve(c.slots, first), carve(c.slots, h)
	sc.drs, sc.in, sc.wx2 = carve(c.slots, 0), carve(c.slots, 0), carve(d*c.slots, 0)
	for i, g := range sc.gates {
		sc.drs[i] = g[:h]
	}
	sc.states = carve(c.states, sh.State*h)

	ints := make([]int, c.members+2*c.cells+(c.members+1)*h+d*(h+second))
	take := func(n int) []int {
		out := ints[:n:n]
		ints = ints[n:]
		return out
	}
	sc.ends, sc.subOf = take(c.members)[:0], take(c.cells)
	cells := take(c.cells)
	sc.keptBuf, sc.every = take(c.members*h), take(h)
	sc.union, sc.wx2Rows = take(d*h), take(d*second)
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

// concat returns the pass's layer-0 inputs end to end, member by member:
// one member's own sequence, or several copied into the flat slab.
func (sc *forwardScratch) concat(seqs [][]tensor.Vector) []tensor.Vector {
	if len(seqs) == 1 {
		return seqs[0]
	}
	flat := sc.flat[:0]
	for _, xs := range seqs {
		flat = append(flat, xs...)
	}
	return flat
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
