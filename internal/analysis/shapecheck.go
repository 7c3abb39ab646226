package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// shapecheck verifies tensor dimensions at lint time.
//
// The simulator's correctness hinges on dimensions flowing consistently
// through the paper's pipeline — the united recurrent matrix is 4h×h,
// DRS row masks are sized to its 4h rows, Eq. 6 predicted-context
// vectors are h long — but a mismatched Gemv(dst, m, x) only fails at
// runtime through tensor.Panicf. shapecheck runs a symbolic dimension
// lattice over each function body on the dataflow engine: vector and
// matrix shapes are learned from tensor.NewVector/NewMatrix/Row/
// AbsRowSums/Clone/Pack/RowBlock and make(), integer dimensions fold
// through named constants, coef·base products (4*h keeps the base h)
// and same-base sums (4*h - h keeps 3*h for RowBlock views), and every
// Gemv/Add/Mul/SigmoidVec/HardSigmoidVec/TanhVec call site is
// checked for compatible dst/m/x dimensions. The packed kernels carry
// their own contracts: Pack inputs must agree on columns, a PackedGemm
// destination's column count is the united row count, and a
// PackedGemvRows skip mask must tile the united matrix. The
// kernels.Builder cost constructors take the same h/e/t integers, so a
// dimension variable shared between a tensor allocation and a kernel
// spec is tracked as one symbol.
//
// Only definite mismatches are reported: both sides known, same
// symbolic base (or both literal), different magnitude. Incomparable
// bases — e.g. a dst allocated from l.Hidden against a matrix loaded
// from disk — stay silent, so intentionally dynamic shapes (DRS-
// compacted rows, calibration subsets) need no annotations; where a
// shape really is recomputed mid-function a //lint:ignore shapecheck
// with a reason documents it.
func init() {
	Register(&Analyzer{
		Name: "shapecheck",
		Doc:  "verify tensor dimensions symbolically at every Gemv/packed/element-wise call site",
		Run:  runShapeCheck,
	})
}

// tensorPkgSuffix identifies the tensor package by import-path suffix,
// so fixtures under any module path participate.
const tensorPkgSuffix = "internal/tensor"

// kernelsPkgSuffix identifies the kernels package the same way.
const kernelsPkgSuffix = "internal/kernels"

// kernelArg is one argument's contract in a kernels.Builder cost
// constructor: a literal below minLit is a definite violation, and so is
// a coefficient more than maxScale times the base argument's (compared
// only when both dimensions share a symbolic base — the same
// definite-only discipline as the tensor checks).
type kernelArg struct {
	index   int
	name    string
	minLit  int64
	bounded bool
	baseArg int
	scale   int64
}

// kernelContracts is the dimension contract table of the Builder cost
// constructors (the serving path's RequestBatch included): the legal
// ranges the kernels package enforces with Panicf at runtime, checked
// symbolically here so a bad call site fails in lint, not mid-serve.
var kernelContracts = map[string][]kernelArg{
	// DRS skip counts: trivial in [0, h].
	"DRS": {{index: 1, name: "trivial", bounded: true, baseArg: 0, scale: 1}},
	// United-matrix row skips: skipRows in [0, 3h] (three skippable
	// gates of the 4h united matrix).
	"SgemvUfic":       {{index: 1, name: "skipRows", bounded: true, baseArg: 0, scale: 3}},
	"SgemmTissueUfic": {{index: 2, name: "skipRows", bounded: true, baseArg: 0, scale: 3}},
	// GRU variants: the per-gate z/r skip and the candidate-gate row
	// skip each cover a single h-row gate (scale 1), unlike the LSTM's
	// three-gate united bound.
	"GRUDRS":     {{index: 1, name: "trivial", bounded: true, baseArg: 0, scale: 1}},
	"GRUSgemvUh": {{index: 1, name: "skipRows", bounded: true, baseArg: 0, scale: 1}},
	"GRUSgemmWx": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "e", minLit: 1},
		{index: 2, name: "n", minLit: 1},
	},
	// Shape arguments that must be at least one.
	"SgemmWx": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "e", minLit: 1},
		{index: 2, name: "n", minLit: 1},
	},
	"RequestBatch": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "length", minLit: 1},
		{index: 2, name: "layers", minLit: 1},
		{index: 3, name: "batch", minLit: 1},
	},
	// The ragged window variant: the length vector is validated at
	// runtime (every length >= 1), so only the scalar shape arguments
	// carry symbolic contracts.
	"RequestBatchRagged": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "layers", minLit: 1},
	},
	// Engine-materialization cost sequences (cold build / warm artifact
	// install): both take the model shape, at least one each.
	"EngineBuild": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "layers", minLit: 1},
	},
	"EngineInstall": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "layers", minLit: 1},
	},
	// Single-dimension recurrent kernels: h must be at least one.
	"SgemvU":     {{index: 0, name: "h", minLit: 1}},
	"SgemvUo":    {{index: 0, name: "h", minLit: 1}},
	"GRUSgemvU":  {{index: 0, name: "h", minLit: 1}},
	"GRUSgemvZR": {{index: 0, name: "h", minLit: 1}},
	// density is a float64 ratio, outside the integer lattice; only h
	// carries a contract.
	"PrunedSgemv": {{index: 0, name: "h", minLit: 1}},
	// Tissue and element-wise kernels take h and the tissue/timestep
	// count, both at least one.
	"SgemmTissue": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "t", minLit: 1},
	},
	"SgemmTissueUo": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "t", minLit: 1},
	},
	"GRUSgemmTissue": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "t", minLit: 1},
	},
	"LstmEW": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "t", minLit: 1},
	},
	"GRUEW": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "t", minLit: 1},
	},
	// The partial element-wise kernel additionally counts live gates.
	"LstmEWPartial": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "t", minLit: 1},
		{index: 2, name: "gates", minLit: 1},
	},
	// Eq. 6 relevance scores n candidates; Predict's break count may be
	// zero (no context breaks in the window) but never negative.
	"Relevance": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "n", minLit: 1},
	},
	"Predict": {
		{index: 0, name: "h", minLit: 1},
		{index: 1, name: "breaks", minLit: 0},
	},
}

func runShapeCheck(pass *Pass) []Finding {
	if pass.Pkg.Info == nil {
		return nil
	}
	c := &shapeClient{pass: pass}
	runDataflow(pass, pass.Pkg.Files, c)
	return c.findings
}

// dim is one point of the symbolic dimension lattice: coef·base, with
// base nil for pure integer literals; the zero dim is ⊤ (unknown).
type dim struct {
	known bool
	coef  int64
	base  any // nil (literal), types.Object, canonSym, or paramSym (summaries)
}

// canonSym is a dim base naming a derived property of a canonical
// access path ("rows(l.Wf)", "len(xs)", "l.Hidden"). root is the
// path's base identifier, kept so kills invalidate the symbol and so
// summary extraction can translate parameter-rooted spellings into
// param-relative ones.
type canonSym struct {
	canon string
	root  types.Object
}

func litDim(v int64) dim  { return dim{known: true, coef: v} }
func symDim(base any) dim { return dim{known: true, coef: 1, base: base} }
func (d dim) scaled(v int64) dim {
	if !d.known {
		return dim{}
	}
	return dim{known: true, coef: v * d.coef, base: d.base}
}

func (d dim) String() string {
	if !d.known {
		return "?"
	}
	if d.base == nil {
		return strconv.FormatInt(d.coef, 10)
	}
	name := ""
	switch b := d.base.(type) {
	case types.Object:
		name = b.Name()
	case canonSym:
		name = b.canon
	case paramSym:
		name = fmt.Sprintf("p%d%s", b.index, b.path)
		switch b.prop {
		case propRows:
			name = "rows(" + name + ")"
		case propCols:
			name = "cols(" + name + ")"
		case propLen:
			name = "len(" + name + ")"
		case propCount:
			name = "count(" + name + ")"
		}
	}
	if d.coef == 1 {
		return name
	}
	return fmt.Sprintf("%d*%s", d.coef, name)
}

// conflicts reports a definite mismatch: both dims known, comparable
// bases, different magnitude. Different bases are incomparable — not
// wrong — which is what keeps the clean repo at zero findings.
func (a dim) conflicts(b dim) bool {
	if !a.known || !b.known || a.base != b.base {
		return false
	}
	return a.coef != b.coef
}

func mergeDim(a, b dim) dim {
	if a == b {
		return a
	}
	return dim{}
}

// The shape facts: integer dimension variables, vectors (and other
// length-checked slices such as []bool skip masks), matrices, and
// slices of vectors (the packed kernels' dst/x sets).
type intFact struct{ d dim }
type vecFact struct{ n dim }
type matFact struct{ rows, cols dim }
type vovFact struct{ count, elem dim }

type shapeClient struct {
	pass     *Pass
	findings []Finding
}

func (c *shapeClient) evalExpr(ev *env, e ast.Expr) any {
	e = ast.Unparen(e)
	t := c.pass.TypeOf(e)
	switch {
	case isTensorMatrix(t):
		return c.matrixFact(ev, e)
	case isLengthChecked(t):
		return c.vectorFact(ev, e)
	case isVecSlice(t):
		return c.vovValue(ev, e)
	case isIntegerType(t):
		if d := c.dimOf(ev, e); d.known {
			return intFact{d}
		}
	}
	return nil
}

func (c *shapeClient) merge(a, b any) any {
	if a == nil || b == nil || a == b {
		if a == b {
			return a
		}
		return nil
	}
	switch av := a.(type) {
	case vecFact:
		if bv, ok := b.(vecFact); ok {
			return vecFact{mergeDim(av.n, bv.n)}
		}
	case matFact:
		if bv, ok := b.(matFact); ok {
			return matFact{mergeDim(av.rows, bv.rows), mergeDim(av.cols, bv.cols)}
		}
	case vovFact:
		if bv, ok := b.(vovFact); ok {
			return vovFact{mergeDim(av.count, bv.count), mergeDim(av.elem, bv.elem)}
		}
	case intFact:
		if bv, ok := b.(intFact); ok {
			if av.d == bv.d {
				return av
			}
		}
	}
	return nil
}

func (c *shapeClient) scrub(f any, killed ref) any {
	switch f := f.(type) {
	case intFact:
		d := scrubDim(f.d, killed)
		if !d.known {
			return nil
		}
		return intFact{d}
	case vecFact:
		return vecFact{scrubDim(f.n, killed)}
	case matFact:
		return matFact{scrubDim(f.rows, killed), scrubDim(f.cols, killed)}
	case vovFact:
		return vovFact{scrubDim(f.count, killed), scrubDim(f.elem, killed)}
	}
	return f
}

func scrubDim(d dim, killed ref) dim {
	if !d.known {
		return d
	}
	switch b := d.base.(type) {
	case types.Object:
		if killed.obj == b {
			return dim{}
		}
	case canonSym:
		if killed.obj != nil && (b.root == killed.obj || canonMentions(b.canon, killed.obj.Name())) {
			return dim{}
		}
		if killed.canon != "" && strings.Contains(b.canon, killed.canon) {
			return dim{}
		}
	}
	return d
}

// check verifies every tensor call site in the node against the
// environment in force there.
func (c *shapeClient) check(ev *env, n ast.Node) {
	inspectNoFuncLit(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := c.tensorCallee(call)
		if name == "" {
			c.checkKernelCall(ev, call)
			return true
		}
		arg := func(i int) ast.Expr {
			if i < len(call.Args) {
				return call.Args[i]
			}
			return nil
		}
		switch name {
		case "Gemv":
			rows, cols := c.mdims(ev, arg(1))
			c.require(call, name, "dst length", c.vdim(ev, arg(0)), "m rows", rows)
			c.require(call, name, "x length", c.vdim(ev, arg(2)), "m cols", cols)
		case "PackedGemv", "PackedGemvRows", "WidePackedGemv":
			rows, cols := c.mdims(ev, arg(1))
			c.require(call, name, "x length", c.vdim(ev, arg(2)), "m cols", cols)
			// The per-gate destinations tile the united matrix: each dst
			// segment length must divide the united row count.
			c.requireDivides(call, name, "dst segment length", c.vovOf(ev, arg(0)).elem, "united rows", rows)
			if name == "PackedGemvRows" {
				// The skip mask covers one segment of the united matrix:
				// its length must divide the united row count (rows =
				// len(dsts) × segment).
				c.requireDivides(call, name, "skip length", c.vdim(ev, arg(3)), "united rows", rows)
			}
		case "PackedGemmRows", "WidePackedGemmRows":
			// The batch-B recurrent kernel: dst is len(xs) × m.Rows, and
			// each per-input skip mask tiles the united row count the way
			// PackedGemvRows' segment mask does.
			dr, dc := c.mdims(ev, arg(0))
			mr, mc := c.mdims(ev, arg(1))
			c.require(call, name, "dst cols", dc, "united rows", mr)
			xs := c.vovOf(ev, arg(2))
			c.require(call, name, "dst rows", dr, "xs count", xs.count)
			c.require(call, name, "xs element length", xs.elem, "m cols", mc)
			skips := c.vovOf(ev, arg(3))
			c.require(call, name, "skips count", skips.count, "xs count", xs.count)
			c.requireDivides(call, name, "skip mask length", skips.elem, "united rows", mr)
		case "PackedGemm":
			// dst is len(xs) × m.Rows: its column count is the united row
			// count (4h for the LSTM's W_{f,i,c,o}, 3h for the GRU's).
			dr, dc := c.mdims(ev, arg(0))
			mr, mc := c.mdims(ev, arg(1))
			c.require(call, name, "dst cols", dc, "united rows", mr)
			xs := c.vovOf(ev, arg(2))
			c.require(call, name, "dst rows", dr, "xs count", xs.count)
			c.require(call, name, "xs element length", xs.elem, "m cols", mc)
		case "Pack":
			// All inputs to the row-wise concatenation must agree on the
			// column count.
			first := dim{}
			firstIdx := 0
			for i := range call.Args {
				_, cl := c.mdims(ev, call.Args[i])
				if !cl.known {
					continue
				}
				if !first.known {
					first, firstIdx = cl, i
					continue
				}
				c.require(call, name, fmt.Sprintf("arg %d cols", firstIdx), first,
					fmt.Sprintf("arg %d cols", i), cl)
			}
		case "Add", "Mul":
			dn, an, bn := c.vdim(ev, arg(0)), c.vdim(ev, arg(1)), c.vdim(ev, arg(2))
			c.require(call, name, "dst length", dn, "a length", an)
			c.require(call, name, "a length", an, "b length", bn)
		case "SigmoidVec", "HardSigmoidVec", "TanhVec":
			c.require(call, name, "dst length", c.vdim(ev, arg(0)), "x length", c.vdim(ev, arg(1)))
		}
		return true
	})
}

// packFact derives the united shape of a tensor.Pack call: rows are the
// same-base sum of the inputs' rows (Pack(Wf, Wi, Wc, Wo) of four h×e
// gates is 4h×e), columns the agreed column count. A spread call or an
// input with unknown shape leaves the corresponding dimension unknown.
func (c *shapeClient) packFact(ev *env, call *ast.CallExpr) any {
	if call.Ellipsis.IsValid() || len(call.Args) == 0 {
		return nil
	}
	var rows, cols dim
	for i, a := range call.Args {
		r, cl := c.mdims(ev, a)
		if i == 0 {
			rows, cols = r, cl
			continue
		}
		if rows.known && r.known && rows.base == r.base {
			rows = dim{known: true, coef: rows.coef + r.coef, base: rows.base}
		} else {
			rows = dim{}
		}
		cols = mergeDim(cols, cl)
	}
	return matFact{rows, cols}
}

// requireDivides reports a segment mask whose length cannot tile the
// united matrix: both dims known on the same base, with the united row
// coefficient not a multiple of the mask's.
func (c *shapeClient) requireDivides(call *ast.CallExpr, fname, aWhat string, a dim, bWhat string, b dim) {
	if !a.known || !b.known || a.base != b.base || a.coef <= 0 {
		return
	}
	if b.coef%a.coef == 0 {
		return
	}
	c.findings = append(c.findings, Finding{
		Analyzer: "shapecheck",
		Pos:      c.pass.Position(call.Pos()),
		Message: fmt.Sprintf("tensor.%s shape mismatch: %s %s does not divide %s %s",
			fname, aWhat, a, bWhat, b),
	})
}

func (c *shapeClient) require(call *ast.CallExpr, fname, aWhat string, a dim, bWhat string, b dim) {
	if !a.conflicts(b) {
		return
	}
	c.findings = append(c.findings, Finding{
		Analyzer: "shapecheck",
		Pos:      c.pass.Position(call.Pos()),
		Message: fmt.Sprintf("tensor.%s shape mismatch: %s is %s but %s is %s",
			fname, aWhat, a, bWhat, b),
	})
}

// checkKernelCall verifies a kernels.Builder cost-constructor call
// against the contract table: definite literal violations and same-base
// coefficient overruns only, so dataflow-unknown skip counts (the
// sched call sites, where trivial rows come from measured statistics)
// stay silent.
func (c *shapeClient) checkKernelCall(ev *env, call *ast.CallExpr) {
	name := c.kernelCallee(call)
	contracts, ok := kernelContracts[name]
	if !ok {
		return
	}
	report := func(msg string) {
		c.findings = append(c.findings, Finding{
			Analyzer: "shapecheck",
			Pos:      c.pass.Position(call.Pos()),
			Message:  fmt.Sprintf("kernels.%s: %s", name, msg),
		})
	}
	for _, ct := range contracts {
		if ct.index >= len(call.Args) {
			continue
		}
		d := c.dimOf(ev, call.Args[ct.index])
		if !d.known {
			continue
		}
		if d.base == nil && d.coef < ct.minLit {
			report(fmt.Sprintf("%s = %s is below the legal minimum %d", ct.name, d, ct.minLit))
			continue
		}
		if !ct.bounded || ct.baseArg >= len(call.Args) {
			continue
		}
		base := c.dimOf(ev, call.Args[ct.baseArg])
		if !base.known || base.base != d.base {
			continue
		}
		if d.coef > ct.scale*base.coef {
			report(fmt.Sprintf("%s = %s exceeds the contract bound %d*(%s)",
				ct.name, d, ct.scale, base))
		}
	}
}

// kernelCallee returns the bare method name of a kernels.Builder cost
// constructor call (receiver typed *kernels.Builder, matched by
// package-path suffix so fixtures participate), or "".
func (c *shapeClient) kernelCallee(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isNamedIn(c.pass.TypeOf(sel.X), kernelsPkgSuffix, "Builder") {
		return ""
	}
	return sel.Sel.Name
}

// tensorCallee returns the bare name of a tensor-package function the
// call reaches: qualified (tensor.Gemv), unqualified inside the package
// itself, or a kernel method on a tensor.Kernels value (ks.Gemv — how
// the forward core calls its run-resolved binding). Methods of other
// tensor types are not kernels and yield "".
func (c *shapeClient) tensorCallee(call *ast.CallExpr) string {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if id == nil {
		return ""
	}
	fn, ok := c.pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), tensorPkgSuffix) {
		return ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && !isNamedIn(recv.Type(), tensorPkgSuffix, "Kernels") {
		return ""
	}
	return fn.Name()
}

// vdim returns the symbolic length of a vector-valued argument.
func (c *shapeClient) vdim(ev *env, e ast.Expr) dim {
	if e == nil {
		return dim{}
	}
	if f, ok := ev.eval(e).(vecFact); ok {
		return f.n
	}
	return dim{}
}

// mdims returns the symbolic shape of a matrix-valued argument.
func (c *shapeClient) mdims(ev *env, e ast.Expr) (dim, dim) {
	if e == nil {
		return dim{}, dim{}
	}
	if f, ok := ev.eval(e).(matFact); ok {
		return f.rows, f.cols
	}
	return dim{}, dim{}
}

// vectorFact derives the length fact for a vector-typed expression that
// has no environment binding.
func (c *shapeClient) vectorFact(ev *env, e ast.Expr) any {
	if call, ok := e.(*ast.CallExpr); ok {
		switch {
		case c.tensorCallee(call) == "NewVector" && len(call.Args) == 1:
			return vecFact{c.dimOf(ev, call.Args[0])}
		case c.tensorCallee(call) == "AbsRowSums" && len(call.Args) == 1:
			rows, _ := c.mdims(ev, call.Args[0])
			return vecFact{rows}
		case c.isBuiltin(call, "make") && len(call.Args) >= 2:
			return vecFact{c.dimOf(ev, call.Args[1])}
		case c.isBuiltin(call, "append"):
			return nil // growth: length no longer the allocation's
		}
		// Methods preserving or deriving length: v.Clone(), m.Row(i).
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvT := c.pass.TypeOf(sel.X)
			switch {
			case sel.Sel.Name == "Clone" && isLengthChecked(recvT):
				if f, ok := ev.eval(sel.X).(vecFact); ok {
					return f
				}
			case sel.Sel.Name == "Row" && isTensorMatrix(recvT):
				_, cols := c.mdims(ev, sel.X)
				return vecFact{cols}
			}
		}
		// Helper call: the callee's interprocedural summary, resolved
		// against the actual arguments.
		if f, ok := c.summaryFact(ev, call).(vecFact); ok {
			return f
		}
		return nil
	}
	// A subslice's length is the bound difference when both bounds share
	// a base: row[h:2*h] is h long.
	if se, ok := e.(*ast.SliceExpr); ok {
		return vecFact{c.sliceSpan(ev, se, c.vdim(ev, se.X))}
	}
	// Indexing a slice of vectors yields one element's length.
	if ix, ok := e.(*ast.IndexExpr); ok {
		if f, ok := ev.eval(ix.X).(vovFact); ok && f.elem.known {
			return vecFact{f.elem}
		}
	}
	// A canonical path (parameter, field) names its own length: two
	// uses of the same path agree, different paths stay incomparable.
	if cn, root := ev.canonOf(e); cn != "" {
		return vecFact{symDim(canonSym{"len(" + cn + ")", root})}
	}
	return nil
}

// sliceSpan computes the length of a slice expression from its bounds:
// full length when unbounded, hi-lo when both bounds share a base.
func (c *shapeClient) sliceSpan(ev *env, se *ast.SliceExpr, full dim) dim {
	lo := litDim(0)
	if se.Low != nil {
		lo = c.dimOf(ev, se.Low)
	}
	hi := full
	if se.High != nil {
		hi = c.dimOf(ev, se.High)
	}
	if !lo.known || !hi.known {
		return dim{}
	}
	switch {
	case lo.base == nil && lo.coef == 0:
		return hi
	case lo.base == hi.base:
		d := dim{known: true, coef: hi.coef - lo.coef, base: hi.base}
		if d.coef == 0 {
			d.base = nil
		}
		return d
	}
	return dim{}
}

// vovValue derives the fact for a slice-of-vectors expression (the
// packed kernels' dst/x sets).
func (c *shapeClient) vovValue(ev *env, e ast.Expr) any {
	switch e := e.(type) {
	case *ast.CallExpr:
		switch {
		case c.isBuiltin(e, "make") && len(e.Args) >= 2:
			return vovFact{count: c.dimOf(ev, e.Args[1])}
		case c.isBuiltin(e, "append"):
			return nil
		}
		if f, ok := c.summaryFact(ev, e).(vovFact); ok {
			return f
		}
		return nil
	case *ast.SliceExpr:
		prev := c.vovOf(ev, e.X)
		return vovFact{count: c.sliceSpan(ev, e, prev.count), elem: prev.elem}
	case *ast.CompositeLit:
		// []Vector{a, b, c}: the count is the literal element count; the
		// element length is kept only when every element agrees.
		f := vovFact{count: litDim(int64(len(e.Elts)))}
		for i, el := range e.Elts {
			n := c.vdim(ev, el)
			if i == 0 {
				f.elem = n
			} else {
				f.elem = mergeDim(f.elem, n)
			}
		}
		return f
	}
	if cn, root := ev.canonOf(e); cn != "" {
		return vovFact{count: symDim(canonSym{"count(" + cn + ")", root})}
	}
	return nil
}

// vovOf returns the slice-of-vectors fact of an argument, or the
// unknown fact.
func (c *shapeClient) vovOf(ev *env, e ast.Expr) vovFact {
	if e == nil {
		return vovFact{}
	}
	if f, ok := ev.eval(e).(vovFact); ok {
		return f
	}
	return vovFact{}
}

// matrixFact derives the shape fact for a matrix-typed expression that
// has no environment binding.
func (c *shapeClient) matrixFact(ev *env, e ast.Expr) any {
	if call, ok := e.(*ast.CallExpr); ok {
		switch c.tensorCallee(call) {
		case "NewMatrix":
			if len(call.Args) == 2 {
				return matFact{c.dimOf(ev, call.Args[0]), c.dimOf(ev, call.Args[1])}
			}
		case "Pack":
			return c.packFact(ev, call)
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isTensorMatrix(c.pass.TypeOf(sel.X)) {
			switch sel.Sel.Name {
			case "Clone":
				if f, ok := ev.eval(sel.X).(matFact); ok {
					return f
				}
			case "RowBlock":
				// RowBlock(lo, hi) keeps the column count and has hi-lo
				// rows when both bounds share a symbolic base.
				if len(call.Args) == 2 {
					_, cols := c.mdims(ev, sel.X)
					lo, hi := c.dimOf(ev, call.Args[0]), c.dimOf(ev, call.Args[1])
					rows := dim{}
					if lo.known && hi.known && lo.base == hi.base {
						rows = dim{known: true, coef: hi.coef - lo.coef, base: hi.base}
						if rows.coef == 0 {
							rows.base = nil
						}
					}
					return matFact{rows, cols}
				}
			}
		}
		if f, ok := c.summaryFact(ev, call).(matFact); ok {
			return f
		}
		return nil
	}
	if cn, root := ev.canonOf(e); cn != "" {
		return matFact{symDim(canonSym{"rows(" + cn + ")", root}), symDim(canonSym{"cols(" + cn + ")", root})}
	}
	return nil
}

// dimOf evaluates an integer expression on the dimension lattice.
func (c *shapeClient) dimOf(ev *env, e ast.Expr) dim {
	e = ast.Unparen(e)
	// Constant-folded expressions (literals, named constants, products
	// of constants) come straight from the type checker.
	if tv, ok := c.pass.Pkg.Info.Types[e]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return litDim(v)
		}
	}
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		if f, bound := ev.lookup(e); bound {
			if i, ok := f.(intFact); ok {
				return i.d
			}
			return dim{}
		}
		// m.Rows / m.Cols read the matrix fact, or derive a spelling
		// that matches matrixFact's fallback for the same path.
		if sel, ok := e.(*ast.SelectorExpr); ok && isTensorMatrix(c.pass.TypeOf(sel.X)) {
			if sel.Sel.Name == "Rows" || sel.Sel.Name == "Cols" {
				rows, cols := c.mdims(ev, sel.X)
				if sel.Sel.Name == "Rows" {
					return rows
				}
				return cols
			}
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := ev.w.objectOf(id); obj != nil {
				return symDim(obj)
			}
			return dim{}
		}
		if cn, root := ev.canonOf(e); cn != "" {
			return symDim(canonSym{cn, root})
		}
	case *ast.CallExpr:
		if c.isBuiltin(e, "len") && len(e.Args) == 1 {
			switch f := ev.eval(e.Args[0]).(type) {
			case vecFact:
				return f.n
			case vovFact:
				return f.count
			}
		}
		if f, ok := c.summaryFact(ev, e).(intFact); ok {
			return f.d
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.MUL:
			x, y := c.dimOf(ev, e.X), c.dimOf(ev, e.Y)
			if x.known && x.base == nil {
				return y.scaled(x.coef)
			}
			if y.known && y.base == nil {
				return x.scaled(y.coef)
			}
		case token.ADD, token.SUB:
			// Same-base sums and differences stay on the lattice:
			// 4*h - h = 3*h is how RowBlock views of the united matrix
			// keep their symbolic row count.
			x, y := c.dimOf(ev, e.X), c.dimOf(ev, e.Y)
			if x.known && y.known && x.base == y.base {
				co := x.coef + y.coef
				if e.Op == token.SUB {
					co = x.coef - y.coef
				}
				d := dim{known: true, coef: co, base: x.base}
				if d.coef == 0 {
					d.base = nil
				}
				return d
			}
		}
	}
	return dim{}
}

func (c *shapeClient) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := c.pass.Pkg.Info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin || obj == nil
}

// summaryFact derives the fact of a single-result helper call from the
// callee's interprocedural summary, or nil when the callee has none.
func (c *shapeClient) summaryFact(ev *env, call *ast.CallExpr) any {
	vals := c.evalCallResults(ev, call, 1)
	if len(vals) == 1 {
		return vals[0]
	}
	return nil
}

// evalCallResults implements callResultClient: the per-result facts of
// a call, produced by substituting the actual arguments into the
// callee's summary shape transfer functions.
func (c *shapeClient) evalCallResults(ev *env, call *ast.CallExpr, n int) []any {
	obj, args := calleeFunc(c.pass.Pkg.Info, call)
	if obj == nil {
		return nil
	}
	s := c.pass.program().summaryFor(obj)
	if s == nil || len(s.Results) != n {
		return nil
	}
	cut := variadicCutoff(s, call)
	out := make([]any, n)
	for i, r := range s.Results {
		out[i] = c.substShape(ev, r, args, cut)
	}
	return out
}

func (c *shapeClient) substShape(ev *env, s ShapeSum, args []ast.Expr, cut int) any {
	switch s.Kind {
	case sumInt:
		if d := c.substDim(ev, s.D0, args, cut); d.known {
			return intFact{d}
		}
	case sumVec:
		return vecFact{c.substDim(ev, s.D0, args, cut)}
	case sumMat:
		return matFact{c.substDim(ev, s.D0, args, cut), c.substDim(ev, s.D1, args, cut)}
	case sumVov:
		return vovFact{c.substDim(ev, s.D0, args, cut), c.substDim(ev, s.D1, args, cut)}
	}
	return nil
}

// substDim resolves a summary dim at a call site: a paramSym base is
// replaced by the named property of the matching actual argument, and
// the caller's coefficient scales through. Param indices in a variadic
// tail (at or past cut when cut >= 0) are not substitutable.
func (c *shapeClient) substDim(ev *env, d dim, args []ast.Expr, cut int) dim {
	if !d.known {
		return d
	}
	p, ok := d.base.(paramSym)
	if !ok {
		if d.base == nil {
			return d
		}
		return dim{} // callee-local base: meaningless at the call site
	}
	if p.index >= len(args) || (cut >= 0 && p.index >= cut) {
		return dim{}
	}
	arg := args[p.index]
	var a dim
	if p.path == "" {
		switch p.prop {
		case propVal:
			a = c.dimOf(ev, arg)
		case propRows:
			a, _ = c.mdims(ev, arg)
		case propCols:
			_, a = c.mdims(ev, arg)
		case propLen:
			a = c.vdim(ev, arg)
		case propCount:
			a = c.vovOf(ev, arg).count
		}
	} else {
		// A field-path symbol re-spells against the argument's canonical
		// path, matching what the caller's own direct use of the same
		// path would produce (rows(n2.Head), l2.Hidden).
		cn, root := ev.canonOf(arg)
		if cn == "" {
			return dim{}
		}
		spelling := cn + p.path
		switch p.prop {
		case propRows:
			spelling = "rows(" + spelling + ")"
		case propCols:
			spelling = "cols(" + spelling + ")"
		case propLen:
			spelling = "len(" + spelling + ")"
		case propCount:
			spelling = "count(" + spelling + ")"
		}
		a = symDim(canonSym{spelling, root})
	}
	if !a.known {
		return dim{}
	}
	return a.scaled(d.coef)
}

// isTensorMatrix reports whether t is (a pointer to) the tensor.Matrix
// struct.
func isTensorMatrix(t types.Type) bool { return isNamedIn(t, tensorPkgSuffix, "Matrix") }

// isNamedIn reports whether t is (a pointer to) the named type name of
// the package whose import path ends in pkgSuffix — matched by suffix
// so fixtures under any module path participate.
func isNamedIn(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && strings.HasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// isLengthChecked reports whether t participates in the length lattice:
// tensor.Vector and any slice of basic elements (float32 rows, []bool
// DRS skip masks).
func isLengthChecked(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, basic := s.Elem().Underlying().(*types.Basic)
	return basic
}

// isVecSlice reports whether t is a slice of length-checked slices —
// []tensor.Vector, the packed kernels' dst/x sets.
func isVecSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isLengthChecked(s.Elem())
}

// isIntegerType reports whether t is an integer kind (dimension
// variables: h, e, t, rows).
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
