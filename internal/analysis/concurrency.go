package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the concurrency half of the summary engine: per-function
// concurrency facts (does a function spawn goroutines, which parameters
// it retains on a spawned goroutine, which WaitGroup parameters it marks
// Done, which channel/context parameters it blocks on). goroutinejoin
// consumes them to stay wrapper-aware: serve.Daemons.Go joins like a
// literal go statement, and a helper that defers wg.Done discharges the
// join obligation at its spawn site.

// --- type predicates --------------------------------------------------

// namedObj returns the named type behind t (dropping one pointer), or
// nil.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// isWaitGroup reports whether t is sync.WaitGroup (possibly behind a
// pointer): the receiver type whose Add registers a goroutine.
func isWaitGroup(t types.Type) bool {
	obj := namedObj(t)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// --- per-function concurrency facts ----------------------------------

// concWalker derives one declaration's concurrency facts for its
// FuncSummary.
type concWalker struct {
	pass   *Pass
	w      *dfWalker
	decl   *ast.FuncDecl
	params []*types.Var
	index  map[types.Object]int

	spawns      bool
	spawnsParam []bool
	donesParam  []bool
	ctxWaits    []bool
}

func newConcWalker(pass *Pass, decl *ast.FuncDecl, params []*types.Var) *concWalker {
	cw := &concWalker{
		pass:        pass,
		w:           &dfWalker{pass: pass},
		decl:        decl,
		params:      params,
		index:       map[types.Object]int{},
		spawnsParam: make([]bool, len(params)),
		donesParam:  make([]bool, len(params)),
		ctxWaits:    make([]bool, len(params)),
	}
	for i, p := range params {
		cw.index[p] = i
	}
	return cw
}

// paramIndex resolves an expression to a parameter index via its plain
// identifier, or -1.
func (cw *concWalker) paramIndex(e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	if i, ok := cw.index[cw.w.objectOf(id)]; ok {
		return i
	}
	return -1
}

// rootParamIndex resolves an access path ("s.dispatch") to the
// parameter index of its root identifier, or -1.
func (cw *concWalker) rootParamIndex(e ast.Expr) int {
	if i := cw.paramIndex(e); i >= 0 {
		return i
	}
	_, root := cw.w.canon(e)
	if root == nil {
		return -1
	}
	if i, ok := cw.index[root]; ok {
		return i
	}
	return -1
}

func (cw *concWalker) run() {
	if cw.decl.Body == nil || cw.pass.Pkg.Info == nil {
		return
	}
	ast.Inspect(cw.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			cw.spawns = true
			cw.spawnRetains(n.Call)
		case *ast.CallExpr:
			cw.call(n)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				cw.waitOn(n.X)
			}
		case *ast.RangeStmt:
			if isChanType(cw.pass.TypeOf(n.X)) {
				cw.waitOn(n.X)
			}
		}
		return true
	})
}

// spawnRetains marks every parameter that escapes onto the goroutine
// spawned by call: the function value itself, arguments, and free
// identifiers of a spawned literal body.
func (cw *concWalker) spawnRetains(call *ast.CallExpr) {
	if i := cw.paramIndex(call.Fun); i >= 0 {
		cw.spawnsParam[i] = true
	}
	for _, arg := range call.Args {
		if i := cw.rootParamIndex(arg); i >= 0 {
			cw.spawnsParam[i] = true
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if i, ok := cw.index[cw.w.objectOf(id)]; ok {
					cw.spawnsParam[i] = true
				}
			}
			return true
		})
	}
}

// waitOn records a blocking receive (or range) whose channel — or
// context, via ctx.Done() — roots at a parameter.
func (cw *concWalker) waitOn(e ast.Expr) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		// <-ctx.Done() style: attribute the wait to the receiver.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if i := cw.rootParamIndex(sel.X); i >= 0 {
				cw.ctxWaits[i] = true
			}
		}
		return
	}
	if i := cw.rootParamIndex(e); i >= 0 {
		cw.ctxWaits[i] = true
	}
}

// call folds one call expression into the facts: direct Done calls on
// WaitGroup parameters, and the transitive closure through callee
// summaries (a callee that spawns, Dones, or waits on what we pass it
// does so on our behalf).
func (cw *concWalker) call(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
		if i := cw.rootParamIndex(sel.X); i >= 0 && isWaitGroup(cw.params[i].Type()) {
			cw.donesParam[i] = true
		}
	}
	obj, rargs := calleeFunc(cw.pass.Pkg.Info, call)
	if obj == nil || obj == cw.pass.Pkg.Info.Defs[cw.decl.Name] {
		return
	}
	sum := cw.pass.program().summaryFor(obj)
	if sum == nil {
		return
	}
	if sum.Spawns {
		cw.spawns = true
	}
	for j, arg := range rargs {
		i := cw.rootParamIndex(arg)
		if i < 0 {
			// A spawned function literal is itself a spawn site of this
			// declaration, already visited by the Inspect walk.
			continue
		}
		if j < len(sum.SpawnsParam) && sum.SpawnsParam[j] {
			cw.spawnsParam[i] = true
		}
		if j < len(sum.DonesParam) && sum.DonesParam[j] && isWaitGroup(cw.params[i].Type()) {
			cw.donesParam[i] = true
		}
		if j < len(sum.CtxWaits) && sum.CtxWaits[j] {
			cw.ctxWaits[i] = true
		}
	}
}

func (cw *concWalker) fill(s *FuncSummary) {
	s.Spawns = cw.spawns
	s.SpawnsParam = cw.spawnsParam
	s.DonesParam = cw.donesParam
	s.CtxWaits = cw.ctxWaits
}
