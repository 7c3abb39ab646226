package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the alias, escape and mutation facts of a function
// summary: a flow-insensitive origin analysis over one function body.
// Every reference-typed local is mapped to the set of roots its value may
// derive from — a parameter, the weight fields of an invalidatable
// value, or a scratch arena — by iterating the body's assignments to a
// fixpoint (union semantics, no kills: origins only accumulate, which
// is the conservative direction for obligations). On top of the origin
// map the walker detects:
//
//   - heap sinks: an origin-carrying value assigned into storage
//     reachable from a parameter, receiver or package-level variable,
//     sent on a channel, or passed to a callee whose summary escapes
//     that parameter;
//   - returns: which params (and arenas, and weight fields) each
//     result may alias;
//   - weight mutations: writes through weight-derived storage, matched
//     against Invalidate calls by a small all-paths analysis.
//
// The analyzers stay definite-only: an unknown callee is assumed
// neither to escape nor to mutate, so only facts the code provably
// establishes produce findings.

// originKind classifies one origin root.
type originKind int

const (
	originParam   originKind = iota // derives from a parameter/receiver
	originWeights                   // aliases weight fields of the layer at loc
	originArena                     // aliases the scratch arena at loc
)

// originRoot is one provenance of a tracked value. loc identifies the
// layer/arena/parameter variable (or canonical path) it is rooted at.
type originRoot struct {
	kind originKind
	loc  ref
}

type originSet map[originRoot]bool

func (s originSet) add(r originRoot) bool {
	if s[r] {
		return false
	}
	s[r] = true
	return true
}

// arenaSink is one statement that leaks an arena-derived value.
type arenaSink struct {
	pos  token.Pos
	what string
}

// factsWalker runs the origin analysis for one declaration.
type factsWalker struct {
	pass   *Pass
	decl   *ast.FuncDecl
	params []*types.Var
	// canon resolution reuses the dataflow walker's path renderer.
	dw      *dfWalker
	origins map[types.Object]originSet

	// results of the sink scan
	escapes      []bool
	resAliases   [][]int
	resWeights   [][]int
	resArena     []bool
	mutated      map[ref]token.Pos
	mutatedOrder []ref
	arenaSinks   []arenaSink
	arenaReturns []token.Pos
}

func newFactsWalker(pass *Pass, decl *ast.FuncDecl, params []*types.Var) *factsWalker {
	nres := 0
	if decl.Type.Results != nil {
		for _, f := range decl.Type.Results.List {
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			nres += n
		}
	}
	return &factsWalker{
		pass:       pass,
		decl:       decl,
		params:     params,
		dw:         &dfWalker{pass: pass},
		origins:    map[types.Object]originSet{},
		escapes:    make([]bool, len(params)),
		resAliases: make([][]int, nres),
		resWeights: make([][]int, nres),
		resArena:   make([]bool, nres),
		mutated:    map[ref]token.Pos{},
	}
}

func (fw *factsWalker) paramIndex(obj types.Object) int {
	for i, p := range fw.params {
		if obj == p {
			return i
		}
	}
	return -1
}

func (fw *factsWalker) run() {
	if fw.decl.Body == nil {
		return
	}
	// Phase 1: iterate assignment propagation to a fixpoint. Chains are
	// short; the bound is a safety valve, not a precision knob.
	for i := 0; i < 6; i++ {
		if !fw.propagate() {
			break
		}
	}
	// Phase 2: single scan for sinks, returns and mutations.
	fw.scanSinks()
	fw.scanMutations()
}

// fill copies the walker's findings into the summary.
func (fw *factsWalker) fill(s *FuncSummary) {
	copy(s.Escapes, fw.escapes)
	s.ResultAliases = fw.resAliases
	s.ResultWeights = fw.resWeights
	s.ResultArena = fw.resArena
	for i, p := range fw.params {
		if !isInvalidatable(p.Type()) {
			continue
		}
		r := ref{obj: p}
		if _, ok := fw.mutated[r]; ok {
			s.Mutates[i] = true
		}
		if fw.allPathsInvalidated(r) {
			s.Invalidates[i] = true
		}
	}
}

// propagate runs one pass over every assignment-like construct,
// unioning RHS origins into LHS variables. Reports whether anything
// changed.
func (fw *factsWalker) propagate() bool {
	changed := false
	join := func(obj types.Object, src originSet) {
		if obj == nil || len(src) == 0 {
			return
		}
		dst := fw.origins[obj]
		if dst == nil {
			dst = originSet{}
			fw.origins[obj] = dst
		}
		for r := range src {
			if dst.add(r) {
				changed = true
			}
		}
	}
	bindIdent := func(e ast.Expr, src originSet) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
			join(fw.dw.objectOf(id), src)
		}
	}
	ast.Inspect(fw.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bindIdent(n.Lhs[i], fw.exprOrigin(n.Rhs[i]))
				}
			} else if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					for i, lh := range n.Lhs {
						bindIdent(lh, fw.callResultOrigin(call, i))
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i := range n.Names {
					bindIdent(n.Names[i], fw.exprOrigin(n.Values[i]))
				}
			}
		case *ast.RangeStmt:
			src := fw.exprOrigin(n.X)
			if n.Value != nil {
				bindIdent(n.Value, src)
			}
		}
		return true
	})
	return changed
}

// exprOrigin computes the origin set of an expression's value.
// Scalar-typed expressions never carry origins — reading a float out of
// an arena slice yields a plain number, not an alias.
func (fw *factsWalker) exprOrigin(e ast.Expr) originSet {
	e = ast.Unparen(e)
	if e == nil || !isRefType(fw.pass.TypeOf(e)) {
		return nil
	}
	out := originSet{}
	fw.addExprOrigin(out, e)
	return out
}

func (fw *factsWalker) addExprOrigin(out originSet, e ast.Expr) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := fw.dw.objectOf(e)
		if obj == nil {
			return
		}
		for r := range fw.origins[obj] {
			out.add(r)
		}
		if i := fw.paramIndex(obj); i >= 0 {
			out.add(originRoot{kind: originParam, loc: ref{obj: obj}})
		}
		if isScratchType(obj.Type()) {
			out.add(originRoot{kind: originArena, loc: ref{obj: obj}})
		}
	case *ast.SelectorExpr:
		if fw.isWeightSelect(e) {
			if r, ok := fw.dw.refFor(e.X); ok {
				out.add(originRoot{kind: originWeights, loc: r})
				return
			}
		}
		fw.addExprOrigin(out, e.X)
		if isScratchType(fw.pass.TypeOf(e)) {
			if r, ok := fw.dw.refFor(e); ok {
				out.add(originRoot{kind: originArena, loc: r})
			}
		}
	case *ast.IndexExpr:
		fw.addExprOrigin(out, e.X)
	case *ast.SliceExpr:
		fw.addExprOrigin(out, e.X)
	case *ast.StarExpr:
		fw.addExprOrigin(out, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			fw.addExprOrigin(out, e.X)
		}
	case *ast.CompositeLit:
		// A literal aliases its reference-typed elements only: scalars
		// read out of an arena are copied in.
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			for r := range fw.exprOrigin(el) {
				out.add(r)
			}
		}
	case *ast.CallExpr:
		for r := range fw.callResultOrigin(e, 0) {
			out.add(r)
		}
	}
}

// callResultOrigin derives the origins of result res of a call.
func (fw *factsWalker) callResultOrigin(call *ast.CallExpr, res int) originSet {
	out := originSet{}
	info := fw.pass.Pkg.Info
	fun := ast.Unparen(call.Fun)
	// Conversions (tensor.Vector(sc.buf), qualified or not) alias their
	// operand; append aliases (and may extend) its arguments.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			fw.addExprOrigin(out, call.Args[0])
		}
		return out
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				for _, a := range call.Args {
					fw.addExprOrigin(out, a)
				}
			}
			return out
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		recvT := fw.pass.TypeOf(sel.X)
		// Methods of a scratch type hand out arena-backed views.
		if isScratchType(recvT) {
			fw.addExprOrigin(out, sel.X)
		}
		// Matrix views alias their receiver (Row/RowBlock); Clone and
		// the reductions allocate fresh storage.
		if isTensorMatrix(recvT) && (sel.Sel.Name == "Row" || sel.Sel.Name == "RowBlock") {
			fw.addExprOrigin(out, sel.X)
		}
	}
	obj, args := calleeFunc(info, call)
	if obj == nil {
		return out
	}
	s := fw.summaryOf(obj)
	if s == nil || res >= len(s.ResultAliases) {
		return out
	}
	for _, pi := range s.ResultAliases[res] {
		if pi < len(args) {
			fw.addExprOrigin(out, args[pi])
		}
	}
	for _, pi := range s.ResultWeights[res] {
		if pi < len(args) {
			if r, ok := fw.dw.refFor(args[pi]); ok {
				out.add(originRoot{kind: originWeights, loc: r})
			}
		}
	}
	if s.ResultArena[res] {
		out.add(originRoot{kind: originArena, loc: ref{canon: "(arena)"}})
	}
	return out
}

func (fw *factsWalker) summaryOf(obj *types.Func) *FuncSummary {
	return fw.pass.program().summaryFor(obj)
}

// isWeightSelect reports whether e selects a weight field — a
// *tensor.Matrix field of an invalidatable struct.
func (fw *factsWalker) isWeightSelect(e *ast.SelectorExpr) bool {
	if !isInvalidatable(fw.pass.TypeOf(e.X)) {
		return false
	}
	return isTensorMatrix(fw.pass.TypeOf(e))
}

// --- sink scan -------------------------------------------------------

// scanSinks walks the body once, recording heap stores, sends, escaping
// call arguments and returns. Returns inside function literals are the
// literal's, not the function's, so they are skipped; store sinks inside
// literals still count (the literal shares the enclosing frame).
func (fw *factsWalker) scanSinks() {
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				walk(x.Body, true)
				return false
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						fw.checkStore(x.Lhs[i], fw.exprOrigin(x.Rhs[i]), x.Pos())
					}
				} else if len(x.Rhs) == 1 {
					if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok {
						for i, lh := range x.Lhs {
							fw.checkStore(lh, fw.callResultOrigin(call, i), x.Pos())
						}
					}
				}
			case *ast.SendStmt:
				fw.sinkOrigins(fw.exprOrigin(x.Value), x.Pos(), "sent on a channel")
			case *ast.CallExpr:
				fw.checkCallArgs(x)
			case *ast.ReturnStmt:
				if !inLit {
					fw.checkReturn(x)
				}
			}
			return true
		})
	}
	walk(fw.decl.Body, false)
}

// checkStore decides whether binding src into lhs leaks it to the heap.
func (fw *factsWalker) checkStore(lhs ast.Expr, src originSet, pos token.Pos) {
	if len(src) == 0 {
		return
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		// Rebinding a local accumulates origins (phase 1); only a
		// package-level variable is a heap sink.
		obj := fw.dw.objectOf(id)
		if obj == nil || obj.Parent() != obj.Pkg().Scope() {
			return
		}
		fw.sinkOrigins(src, pos, "stored in package-level variable "+id.Name)
		return
	}
	// A store through a selector/index/star chain leaks src if the
	// container is heap-reachable (param-, weight- or global-rooted)
	// and not itself arena storage.
	var container ast.Expr
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		container = l.X
	case *ast.IndexExpr:
		container = l.X
	case *ast.StarExpr:
		container = l.X
	default:
		return
	}
	co := fw.exprOrigin(container)
	if co.hasKind(originArena) {
		return // writing into the arena itself is the point of the arena
	}
	if co.hasKind(originParam) || co.hasKind(originWeights) || fw.globalRooted(container) {
		fw.sinkOrigins(src, pos, "stored to a heap-reachable location")
	}
}

func (s originSet) hasKind(k originKind) bool {
	for r := range s {
		if r.kind == k {
			return true
		}
	}
	return false
}

// globalRooted reports whether the access path is rooted at a
// package-level variable.
func (fw *factsWalker) globalRooted(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := fw.dw.objectOf(x)
			return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// sinkOrigins records the consequences of one leaking value: escape
// facts for its param roots, an arena sink for its arena roots.
func (fw *factsWalker) sinkOrigins(src originSet, pos token.Pos, what string) {
	for r := range src {
		switch r.kind {
		case originParam:
			if i := fw.paramIndex(r.loc.obj); i >= 0 {
				fw.escapes[i] = true
			}
		case originArena:
			fw.arenaSinks = append(fw.arenaSinks, arenaSink{pos: pos, what: what})
		}
	}
}

// checkCallArgs flags tainted arguments handed to a callee whose
// summary says that parameter escapes.
func (fw *factsWalker) checkCallArgs(call *ast.CallExpr) {
	obj, args := calleeFunc(fw.pass.Pkg.Info, call)
	if obj == nil {
		return
	}
	s := fw.summaryOf(obj)
	if s == nil {
		return
	}
	for i, a := range args {
		if i >= len(s.Escapes) || !s.Escapes[i] {
			continue
		}
		fw.sinkOrigins(fw.exprOrigin(a), call.Pos(),
			"passed to "+obj.Name()+", which stores it")
	}
}

// checkReturn records what each returned value aliases.
func (fw *factsWalker) checkReturn(ret *ast.ReturnStmt) {
	if len(ret.Results) != len(fw.resAliases) {
		return // bare return of named results, or multi-value pass-through
	}
	for i, e := range ret.Results {
		for r := range fw.exprOrigin(e) {
			switch r.kind {
			case originParam:
				if pi := fw.paramIndex(r.loc.obj); pi >= 0 {
					fw.resAliases[i] = addIndex(fw.resAliases[i], pi)
				}
			case originWeights:
				if pi := fw.paramIndex(r.loc.obj); pi >= 0 && r.loc.canon == "" {
					fw.resWeights[i] = addIndex(fw.resWeights[i], pi)
				}
			case originArena:
				if r.loc.obj != nil && fw.paramIndex(r.loc.obj) >= 0 {
					// arena passed in by the caller: covered by the
					// originParam alias entry for the same variable.
					continue
				}
				fw.resArena[i] = true
				fw.arenaReturns = append(fw.arenaReturns, ret.Pos())
			}
		}
	}
}

func addIndex(s []int, i int) []int {
	for _, v := range s {
		if v == i {
			return s
		}
	}
	s = append(s, i)
	sortInts(s)
	return s
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- weight mutation + Invalidate ------------------------------------

// scanMutations records every statement that writes weight-derived
// storage, keyed by the layer value it belongs to.
func (fw *factsWalker) scanMutations() {
	ast.Inspect(fw.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures are not path-analyzable here
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lh := range x.Lhs {
				fw.recordWrite(lh, x.Pos())
			}
		case *ast.IncDecStmt:
			fw.recordWrite(x.X, x.Pos())
		case *ast.CallExpr:
			obj, args := calleeFunc(fw.pass.Pkg.Info, x)
			if obj == nil {
				return true
			}
			s := fw.summaryOf(obj)
			if s == nil {
				return true
			}
			for i, a := range args {
				if i >= len(s.Mutates) || !s.Mutates[i] || s.Invalidates[i] {
					continue
				}
				if r, ok := fw.dw.refFor(a); ok {
					fw.recordMutation(r, x.Pos())
				}
			}
		}
		return true
	})
}

// recordWrite classifies one assignment target: a write through
// weight-derived storage is a mutation of that layer.
func (fw *factsWalker) recordWrite(lhs ast.Expr, pos token.Pos) {
	lhs = ast.Unparen(lhs)
	var target originSet
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		// Covers both rebinding a weight field (l.Wf = m) and writing a
		// field of weight-derived storage.
		target = fw.exprOrigin(l)
		if len(target) == 0 && fw.isWeightSelect(l) {
			if r, ok := fw.dw.refFor(l.X); ok {
				target = originSet{originRoot{kind: originWeights, loc: r}: true}
			}
		}
	case *ast.IndexExpr:
		target = fw.exprOrigin(l.X)
	case *ast.StarExpr:
		target = fw.exprOrigin(l.X)
	default:
		return
	}
	for r := range target {
		if r.kind == originWeights {
			fw.recordMutation(r.loc, pos)
		}
	}
}

func (fw *factsWalker) recordMutation(layer ref, pos token.Pos) {
	if _, ok := fw.mutated[layer]; !ok {
		fw.mutated[layer] = pos
		fw.mutatedOrder = append(fw.mutatedOrder, layer)
	}
}

// invState is the abstract state of the all-paths Invalidate check.
type invState struct {
	pending  bool // a mutation has happened with no Invalidate since
	deferred bool // a defer L.Invalidate() is registered on this path
}

func joinInv(a, b invState) invState {
	return invState{pending: a.pending || b.pending, deferred: a.deferred && b.deferred}
}

// allPathsInvalidated reports whether every path from a mutation of the
// layer at L to a return passes an Invalidate of L (a registered defer
// counts for every later return).
func (fw *factsWalker) allPathsInvalidated(L ref) bool {
	bad := false // some return is reached with a mutation pending
	pw := pathWalker[invState]{
		info: fw.pass.Pkg.Info,
		join: joinInv,
		leaf: func(st invState, s ast.Stmt) invState {
			switch s := s.(type) {
			case *ast.DeferStmt:
				if fw.callInvalidates(s.Call, L) {
					st = invState{deferred: true}
				}
				return st
			case *ast.ReturnStmt:
				if fw.stmtMutates(s, L) && !st.deferred {
					st.pending = true
				}
				bad = bad || st.pending
				return st
			}
			if fw.stmtInvalidates(s, L) {
				st.pending = false
			} else if fw.stmtMutates(s, L) && !st.deferred {
				st.pending = true
			}
			return st
		},
	}
	st, ends := pw.stmts(invState{}, fw.decl.Body.List)
	// Falling off the end of the body is an implicit return.
	return !bad && (ends || !st.pending)
}

// stmtMutates reports whether the statement writes L's weights (by
// direct store or by calling a mutating, non-invalidating callee).
func (fw *factsWalker) stmtMutates(s ast.Stmt, L ref) bool {
	if s == nil {
		return false
	}
	found := false
	inspectNoFuncLit(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lh := range x.Lhs {
				if fw.writeTargets(lh, L) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if fw.writeTargets(x.X, L) {
				found = true
			}
		case *ast.CallExpr:
			obj, args := calleeFunc(fw.pass.Pkg.Info, x)
			if obj == nil {
				return true
			}
			sum := fw.summaryOf(obj)
			if sum == nil {
				return true
			}
			for i, a := range args {
				if i >= len(sum.Mutates) || !sum.Mutates[i] || sum.Invalidates[i] {
					continue
				}
				if r, ok := fw.dw.refFor(a); ok && r == L {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func (fw *factsWalker) writeTargets(lhs ast.Expr, L ref) bool {
	lhs = ast.Unparen(lhs)
	var target originSet
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		target = fw.exprOrigin(l)
		if fw.isWeightSelect(l) {
			if r, ok := fw.dw.refFor(l.X); ok && r == L {
				return true
			}
		}
	case *ast.IndexExpr:
		target = fw.exprOrigin(l.X)
	case *ast.StarExpr:
		target = fw.exprOrigin(l.X)
	default:
		return false
	}
	return target[originRoot{kind: originWeights, loc: L}]
}

// stmtInvalidates reports whether the statement (outside any function
// literal) certainly calls L.Invalidate, directly or through a wrapper
// whose summary guarantees it.
func (fw *factsWalker) stmtInvalidates(s ast.Stmt, L ref) bool {
	if s == nil {
		return false
	}
	found := false
	inspectNoFuncLit(s, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && fw.callInvalidates(call, L) {
			found = true
		}
		return true
	})
	return found
}

func (fw *factsWalker) callInvalidates(call *ast.CallExpr, L ref) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Invalidate" {
		if isInvalidatable(fw.pass.TypeOf(sel.X)) {
			if r, ok := fw.dw.refFor(sel.X); ok && r == L {
				return true
			}
		}
	}
	obj, args := calleeFunc(fw.pass.Pkg.Info, call)
	if obj == nil {
		return false
	}
	s := fw.summaryOf(obj)
	if s == nil {
		return false
	}
	for i, a := range args {
		if i >= len(s.Invalidates) || !s.Invalidates[i] {
			continue
		}
		if r, ok := fw.dw.refFor(a); ok && r == L {
			return true
		}
	}
	return false
}

// --- type predicates -------------------------------------------------

// tensorPkgSuffix identifies the tensor package by import-path suffix,
// so fixtures under any module path participate.
const tensorPkgSuffix = "internal/tensor"

// isTensorMatrix reports whether t is (a pointer to) the tensor.Matrix
// struct.
func isTensorMatrix(t types.Type) bool {
	obj := namedObj(t)
	return obj != nil && obj.Pkg() != nil && obj.Name() == "Matrix" &&
		strings.HasSuffix(obj.Pkg().Path(), tensorPkgSuffix)
}

// isInvalidatable reports whether t (possibly behind a pointer) is a
// named struct that owns cached packed weights: it has an Invalidate
// method and at least one *tensor.Matrix field.
func isInvalidatable(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	hasInv := false
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == "Invalidate" {
			hasInv = true
			break
		}
	}
	if !hasInv {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isTensorMatrix(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isScratchType reports whether t (possibly behind a pointer) is a
// named scratch-arena struct, identified by the *Scratch naming
// convention the hot paths use (forwardScratch).
func isScratchType(t types.Type) bool {
	obj := namedObj(t)
	if obj == nil || !strings.HasSuffix(obj.Name(), "Scratch") {
		return false
	}
	_, ok := obj.Type().Underlying().(*types.Struct)
	return ok
}

// isRefType reports whether values of t can alias other storage:
// slices, pointers, maps, channels, interfaces, and structs/arrays that
// contain any of those. Scalars never carry origins.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if isRefType(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return isRefType(u.Elem())
	}
	return false
}
