package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the intraprocedural dataflow layer float64leak is built
// on: a small abstract interpreter over go/ast + go/types that
// propagates client-defined facts through local assignments, short
// variable declarations, branches and loops.
//
// The engine owns control flow and the binding environment; a dfClient
// owns the fact domain. Facts attach to refs — storage locations that
// can be named without side effects: plain identifiers (keyed by their
// types.Object) and simple access paths like l.Wf or xf[t] (keyed by a
// canonical spelling plus the root identifier, so reassigning the root
// invalidates them). Anything else (calls, complex indices) never
// carries a persistent fact.
//
// Join semantics are the client's choice via merge: a taint domain
// unions (tainted on either branch stays tainted). Loops are
// approximated by a bounded widening: a few silent trial passes let
// facts established in iteration k reach uses in iteration k+1, then
// one reporting pass runs with the widened environment. Function
// literals are interpreted separately with fresh environments.

// dfClient is the fact domain plugged into the dataflow walker.
type dfClient interface {
	// evalExpr derives the fact for an expression that is not bound in
	// the environment (constructors, conversions, arithmetic over
	// already-tracked values). Returning nil means "no fact".
	evalExpr(ev *env, e ast.Expr) any
	// merge joins two facts at a control-flow join point; either side
	// may be nil (fact absent on that path). Returning nil drops the
	// binding.
	merge(a, b any) any
	// check inspects one statement-level node with the environment in
	// force at that point. It runs only during the reporting pass, so
	// it fires exactly once per node.
	check(ev *env, n ast.Node)
}

// ref identifies a storage location facts can attach to.
type ref struct {
	obj   types.Object // non-nil for plain identifiers
	canon string       // canonical spelling of an access path ("l.Wf", "xf[t]")
	root  types.Object // base identifier of a canon path, for invalidation
}

// env is the binding environment at one program point.
type env struct {
	w     *dfWalker
	facts map[ref]any
}

func (w *dfWalker) newEnv() *env {
	return &env{w: w, facts: map[ref]any{}}
}

func (ev *env) clone() *env {
	out := ev.w.newEnv()
	for k, v := range ev.facts {
		out.facts[k] = v
	}
	return out
}

func (ev *env) replaceWith(o *env) { ev.facts = o.facts }

// eval returns the fact for e: a bound ref's fact when one exists,
// otherwise whatever the client derives from the expression itself.
func (ev *env) eval(e ast.Expr) any {
	e = ast.Unparen(e)
	if f, ok := ev.lookup(e); ok {
		return f
	}
	return ev.w.client.evalExpr(ev, e)
}

// lookup returns the fact bound to e's ref, if any, without consulting
// the client.
func (ev *env) lookup(e ast.Expr) (any, bool) {
	r, ok := ev.w.refFor(e)
	if !ok {
		return nil, false
	}
	f, ok := ev.facts[r]
	return f, ok
}

// loopTrialPasses bounds the widening iterations per loop. Facts here
// flow through plain bindings (no arithmetic growth), so chains longer
// than the bound across a single loop body are not expected; the bound
// trades a true fixpoint for guaranteed termination without fact
// equality tests.
const loopTrialPasses = 3

// dfWalker interprets function bodies for one client.
type dfWalker struct {
	pass      *Pass
	client    dfClient
	reporting bool
	queue     []*ast.FuncLit // literals scheduled for separate interpretation
}

// runDataflow applies the client to every function body in files. Each
// body — and each function literal within one — is interpreted with a
// fresh environment; package-level initializer expressions are checked
// against an empty environment.
func runDataflow(pass *Pass, files []*ast.File, client dfClient) {
	w := &dfWalker{pass: pass, client: client}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					w.funcBody(d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					w.reporting = true
					ev := w.newEnv()
					for _, v := range vs.Values {
						w.checkExpr(ev, v)
					}
				}
			}
		}
	}
	for len(w.queue) > 0 {
		fl := w.queue[0]
		w.queue = w.queue[1:]
		w.funcBody(fl.Body)
	}
}

func (w *dfWalker) funcBody(body *ast.BlockStmt) {
	w.reporting = true
	w.stmt(w.newEnv(), body)
}

func (w *dfWalker) stmt(ev *env, s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(ev, st)
		}
	case *ast.ExprStmt:
		w.checkExpr(ev, s.X)
	case *ast.SendStmt:
		w.checkExpr(ev, s.Chan)
		w.checkExpr(ev, s.Value)
	case *ast.IncDecStmt:
		w.checkNode(ev, s)
		w.kill(ev, s.X)
	case *ast.AssignStmt:
		w.assignStmt(ev, s)
	case *ast.DeclStmt:
		w.declStmt(ev, s)
	case *ast.ReturnStmt:
		w.checkNode(ev, s)
		for _, r := range s.Results {
			w.killAddrOf(ev, r)
		}
	case *ast.IfStmt:
		w.stmt(ev, s.Init)
		w.checkExpr(ev, s.Cond)
		thenEnv := ev.clone()
		w.stmt(thenEnv, s.Body)
		elseEnv := ev.clone()
		w.stmt(elseEnv, s.Else)
		ev.replaceWith(w.mergeEnvs(thenEnv, elseEnv))
	case *ast.ForStmt:
		w.stmt(ev, s.Init)
		w.loop(ev, func(ev *env) {
			if s.Cond != nil {
				w.checkExpr(ev, s.Cond)
			}
			w.stmt(ev, s.Body)
			w.stmt(ev, s.Post)
		})
	case *ast.RangeStmt:
		w.checkExpr(ev, s.X)
		w.loop(ev, func(ev *env) {
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if e != nil {
					w.kill(ev, e)
				}
			}
			w.stmt(ev, s.Body)
		})
	case *ast.SwitchStmt:
		w.stmt(ev, s.Init)
		if s.Tag != nil {
			w.checkExpr(ev, s.Tag)
		}
		w.clauses(ev, s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(ev, s.Init)
		w.stmt(ev, s.Assign)
		w.clauses(ev, s.Body)
	case *ast.SelectStmt:
		w.clauses(ev, s.Body)
	case *ast.LabeledStmt:
		w.stmt(ev, s.Stmt)
	case *ast.GoStmt:
		w.checkExpr(ev, s.Call)
	case *ast.DeferStmt:
		w.checkExpr(ev, s.Call)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// Jump targets are not modelled; the conservative joins at the
		// enclosing loop/switch already cover early exits.
	}
}

// clauses interprets the case/comm clauses of a switch or select. Each
// clause runs against a copy of the entry environment, and the "no
// clause taken" path keeps the entry environment itself in the join.
func (w *dfWalker) clauses(ev *env, body *ast.BlockStmt) {
	merged := ev.clone()
	for _, cl := range body.List {
		ce := ev.clone()
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.checkExpr(ce, e)
			}
			for _, st := range cl.Body {
				w.stmt(ce, st)
			}
		case *ast.CommClause:
			w.stmt(ce, cl.Comm)
			for _, st := range cl.Body {
				w.stmt(ce, st)
			}
		}
		merged = w.mergeEnvs(merged, ce)
	}
	ev.replaceWith(merged)
}

// loop runs body to a bounded fixpoint approximation: silent trial
// passes widen the environment, then — if this invocation is the
// reporting pass — one final pass reports with the widened state. The
// zero-iteration path is preserved because every pass merges back into
// the entry environment instead of replacing it.
func (w *dfWalker) loop(ev *env, body func(*env)) {
	outer := w.reporting
	w.reporting = false
	for i := 0; i < loopTrialPasses; i++ {
		trial := ev.clone()
		body(trial)
		ev.replaceWith(w.mergeEnvs(ev, trial))
	}
	w.reporting = outer
	if !outer {
		return
	}
	trial := ev.clone()
	body(trial)
	ev.replaceWith(w.mergeEnvs(ev, trial))
}

func (w *dfWalker) assignStmt(ev *env, s *ast.AssignStmt) {
	w.checkNode(ev, s)
	for _, r := range s.Rhs {
		w.killAddrOf(ev, r)
	}
	switch {
	case s.Tok == token.DEFINE || s.Tok == token.ASSIGN:
		if len(s.Lhs) == len(s.Rhs) {
			// Evaluate every RHS before binding any LHS: a, b = b, a
			// must read the pre-assignment facts.
			vals := make([]any, len(s.Rhs))
			for i := range s.Rhs {
				vals[i] = ev.eval(s.Rhs[i])
			}
			for i, lh := range s.Lhs {
				w.bind(ev, lh, vals[i])
			}
		} else {
			// Multi-value assignment from a call: no facts survive.
			for _, lh := range s.Lhs {
				w.kill(ev, lh)
			}
		}
	default:
		// Compound assignment x op= y: the client's join decides the
		// combined fact (a union domain keeps taint).
		combined := w.client.merge(ev.eval(s.Lhs[0]), ev.eval(s.Rhs[0]))
		w.bind(ev, s.Lhs[0], combined)
	}
}

func (w *dfWalker) declStmt(ev *env, s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			w.checkExpr(ev, v)
		}
		if len(vs.Values) == len(vs.Names) {
			for i, name := range vs.Names {
				w.bind(ev, name, ev.eval(vs.Values[i]))
			}
		} else {
			for _, name := range vs.Names {
				w.kill(ev, name)
			}
		}
	}
}

// bind assigns a fact to an lvalue, first invalidating whatever
// depended on its previous value.
func (w *dfWalker) bind(ev *env, lhs ast.Expr, fact any) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	w.kill(ev, lhs)
	if fact == nil {
		return
	}
	if r, ok := w.refFor(lhs); ok {
		ev.facts[r] = fact
	}
}

// kill removes the fact bound to lhs and invalidates dependents: refs
// rooted at the same identifier and canonical paths mentioning it.
func (w *dfWalker) kill(ev *env, lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	r, ok := w.refFor(lhs)
	if !ok {
		return
	}
	delete(ev.facts, r)
	name := r.canon
	if r.obj != nil {
		name = r.obj.Name()
	}
	for k := range ev.facts {
		if r.obj != nil && (k.obj == r.obj || k.root == r.obj) {
			delete(ev.facts, k)
			continue
		}
		if k.canon != "" && canonMentions(k.canon, name) {
			delete(ev.facts, k)
		}
	}
}

// killAddrOf invalidates locations whose address escapes in e: a
// callee holding &x may rewrite x behind the analysis' back.
func (w *dfWalker) killAddrOf(ev *env, e ast.Expr) {
	inspectNoFuncLit(e, func(n ast.Node) bool {
		u, ok := n.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return true
		}
		target := ast.Unparen(u.X)
		if ix, ok := target.(*ast.IndexExpr); ok {
			target = ix.X
		}
		w.kill(ev, target)
		return true
	})
}

// checkExpr runs the client check over an expression and applies its
// side effects (escaping addresses, scheduled function literals).
func (w *dfWalker) checkExpr(ev *env, e ast.Expr) {
	if e == nil {
		return
	}
	w.checkNode(ev, e)
	w.killAddrOf(ev, e)
}

func (w *dfWalker) checkNode(ev *env, n ast.Node) {
	if !w.reporting {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok {
			w.queue = append(w.queue, fl)
			return false
		}
		return true
	})
	w.client.check(ev, n)
}

// mergeEnvs joins two environments key-by-key through the client.
func (w *dfWalker) mergeEnvs(a, b *env) *env {
	out := w.newEnv()
	for k, fa := range a.facts {
		if m := w.client.merge(fa, b.facts[k]); m != nil {
			out.facts[k] = m
		}
	}
	for k, fb := range b.facts {
		if _, seen := a.facts[k]; seen {
			continue
		}
		if m := w.client.merge(nil, fb); m != nil {
			out.facts[k] = m
		}
	}
	return out
}

// refFor resolves an expression to a trackable storage location.
func (w *dfWalker) refFor(e ast.Expr) (ref, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return ref{}, false
		}
		if obj := w.objectOf(e); obj != nil {
			return ref{obj: obj}, true
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if c, root := w.canon(e); c != "" {
			return ref{canon: c, root: root}, true
		}
	}
	return ref{}, false
}

// canon renders a side-effect-free access path ("l.Wf", "xf[t]") as a
// canonical string plus its root identifier's object. Expressions
// containing calls or non-trivial indices are not canonical.
func (w *dfWalker) canon(e ast.Expr) (string, types.Object) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.objectOf(e)
		if obj == nil {
			return "", nil
		}
		return e.Name, obj
	case *ast.SelectorExpr:
		base, root := w.canon(e.X)
		if base == "" {
			return "", nil
		}
		return base + "." + e.Sel.Name, root
	case *ast.IndexExpr:
		base, root := w.canon(e.X)
		if base == "" {
			return "", nil
		}
		switch ix := ast.Unparen(e.Index).(type) {
		case *ast.Ident:
			return base + "[" + ix.Name + "]", root
		case *ast.BasicLit:
			return base + "[" + ix.Value + "]", root
		}
	case *ast.StarExpr:
		base, root := w.canon(e.X)
		if base == "" {
			return "", nil
		}
		return "*" + base, root
	}
	return "", nil
}

func (w *dfWalker) objectOf(id *ast.Ident) types.Object {
	info := w.pass.Pkg.Info
	if info == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// canonMentions reports whether the canonical spelling s names ident as
// one of its path segments ("xf[t]" mentions both xf and t).
func canonMentions(s, ident string) bool {
	if ident == "" {
		return false
	}
	for _, seg := range strings.FieldsFunc(s, func(r rune) bool {
		return r == '.' || r == '[' || r == ']' || r == '(' || r == ')' || r == '*' || r == ' '
	}) {
		if seg == ident {
			return true
		}
	}
	return false
}

// inspectNoFuncLit walks n without descending into function literals —
// their bodies are interpreted separately with fresh environments.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return fn(x)
	})
}
