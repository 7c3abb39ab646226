package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutinejoin requires every go statement to come with a join path:
// evidence that the spawned goroutine is collected or lifetime-bounded
// rather than leaked. Accepted evidence, transitively through helpers
// via summaries:
//
//   - a paired WaitGroup registration: wg.Add positioned before the go
//     in the same declaration, and the spawned body (or a callee it
//     hands the WaitGroup to — DonesParam) calling wg.Done. This is the
//     serve.Daemons registry pattern: Daemons.Go carries the pair, so
//     registering a daemon needs no annotation.
//   - a lifetime bound: the spawned body blocks on a channel or
//     context (receive, range, select, <-ctx.Done()), directly or
//     through a callee (CtxWaits) — the owner of that channel controls
//     the goroutine's exit.
//   - a channel join: the spawned body sends on (or closes) a channel
//     the spawning declaration receives from — the classic result
//     handoff.
//
// A go statement with none of the above is a finding: either join it,
// register it with a registry like serve.Daemons, or bound its lifetime
// on a context. Each spawn is checked on its own, so one collected
// goroutine cannot sanction a leaked sibling in the same function, and
// an Add on a type that is not a sync.WaitGroup registers nothing.
func init() {
	Register(&Analyzer{
		Name: "goroutinejoin",
		Doc:  "every go statement needs a join path: WaitGroup pair, channel join, or ctx-done bound",
		Run:  runGoroutineJoin,
	})
}

func runGoroutineJoin(pass *Pass) []Finding {
	if pass.Pkg.Info == nil {
		return nil
	}
	var findings []Finding
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			jc := &joinChecker{pass: pass, w: &dfWalker{pass: pass}, decl: fd}
			findings = append(findings, jc.check()...)
		}
	}
	return findings
}

type joinChecker struct {
	pass *Pass
	w    *dfWalker
	decl *ast.FuncDecl

	// adds are the WaitGroup.Add sites of the declaration (any nesting:
	// an Add inside an outer spawned literal still precedes an inner go
	// in source order, which is what the registration pattern needs).
	adds []refPos
	// recvs are the channels the declaration consumes outside spawned
	// bodies — join points for the channel-handoff rule.
	recvs map[ref]bool
}

type refPos struct {
	r   ref
	pos token.Pos
}

func (jc *joinChecker) check() []Finding {
	jc.recvs = map[ref]bool{}
	var gos []*ast.GoStmt

	// First sweep: Add sites, consumption points, go statements. The
	// consumption sweep skips spawned bodies — a goroutine receiving
	// its own sends joins nothing.
	var spawned []*ast.FuncLit
	ast.Inspect(jc.decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, g)
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				spawned = append(spawned, lit)
			}
		}
		return true
	})
	inSpawned := func(pos token.Pos) bool {
		for _, lit := range spawned {
			if pos >= lit.Pos() && pos < lit.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(jc.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Add" && isWaitGroup(jc.pass.TypeOf(sel.X)) {
				if r, ok := jc.w.refFor(sel.X); ok {
					jc.adds = append(jc.adds, refPos{r: r, pos: n.Pos()})
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inSpawned(n.Pos()) {
				jc.markRecv(n.X)
			}
		case *ast.RangeStmt:
			if !inSpawned(n.Pos()) && isChanType(jc.pass.TypeOf(n.X)) {
				jc.markRecv(n.X)
			}
		}
		return true
	})

	var findings []Finding
	for _, g := range gos {
		if jc.joined(g) {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: "goroutinejoin",
			Pos:      jc.pass.Position(g.Pos()),
			Message: "goroutine has no join path (no WaitGroup Add/Done pair, channel join, " +
				"or ctx-done bound); join it, register it like serve.Daemons, or bound it on a context",
		})
	}
	return findings
}

func (jc *joinChecker) markRecv(e ast.Expr) {
	if r, ok := jc.w.refFor(e); ok {
		jc.recvs[r] = true
	}
}

// addBefore reports whether r was registered with a WaitGroup.Add
// positioned before pos.
func (jc *joinChecker) addBefore(r ref, pos token.Pos) bool {
	for _, a := range jc.adds {
		if a.r == r && a.pos < pos {
			return true
		}
	}
	return false
}

func (jc *joinChecker) joined(g *ast.GoStmt) bool {
	call := g.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return jc.litJoined(lit, g.Pos())
	}
	// go fn(args) / go x.m(args): the callee's summary carries the
	// evidence — it Dones a WaitGroup we registered, or it is bounded
	// by a channel/context we hand it (the receiver counts: go
	// s.workerLoop() ranging over s.dispatch is bounded by s).
	obj, rargs := calleeFunc(jc.pass.Pkg.Info, call)
	if obj == nil {
		return false
	}
	sum := jc.pass.program().summaryFor(obj)
	if sum == nil {
		return false
	}
	for j, arg := range rargs {
		if j < len(sum.DonesParam) && sum.DonesParam[j] {
			if r, ok := jc.w.refFor(ast.Unparen(jc.derefArg(arg))); ok && jc.addBefore(r, g.Pos()) {
				return true
			}
		}
		if j < len(sum.CtxWaits) && sum.CtxWaits[j] {
			return true
		}
	}
	return false
}

// derefArg strips one & so go worker(&wg) matches Add sites spelled
// wg.Add(1).
func (jc *joinChecker) derefArg(arg ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return arg
}

// litJoined checks a spawned literal body for join evidence.
func (jc *joinChecker) litJoined(lit *ast.FuncLit, goPos token.Pos) bool {
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				// wg.Done() on a WaitGroup registered before the spawn.
				if sel.Sel.Name == "Done" && isWaitGroup(jc.pass.TypeOf(sel.X)) {
					if r, ok := jc.w.refFor(sel.X); ok && jc.addBefore(r, goPos) {
						joined = true
						return false
					}
				}
				// <-ctx.Done() receives are handled by the ARROW case;
				// a bare ctx.Done() call is not a wait.
			}
			// helper(&wg) / helper(ctx): join evidence through the
			// callee's summary.
			if obj, rargs := calleeFunc(jc.pass.Pkg.Info, n); obj != nil {
				if sum := jc.pass.program().summaryFor(obj); sum != nil {
					for j, arg := range rargs {
						if j < len(sum.DonesParam) && sum.DonesParam[j] {
							if r, ok := jc.w.refFor(ast.Unparen(jc.derefArg(arg))); ok && jc.addBefore(r, goPos) {
								joined = true
								return false
							}
						}
						if j < len(sum.CtxWaits) && sum.CtxWaits[j] {
							joined = true
							return false
						}
					}
				}
			}
		case *ast.UnaryExpr:
			// A blocking receive bounds the goroutine's lifetime on the
			// channel's owner (<-done, <-ctx.Done()).
			if n.Op == token.ARROW {
				joined = true
				return false
			}
		case *ast.RangeStmt:
			if isChanType(jc.pass.TypeOf(n.X)) {
				joined = true
				return false
			}
		case *ast.SelectStmt:
			joined = true
			return false
		case *ast.SendStmt:
			// Channel handoff: the body sends on a channel the spawning
			// declaration receives from.
			if r, ok := jc.w.refFor(n.Chan); ok && jc.recvs[r] {
				joined = true
				return false
			}
		}
		return true
	})
	if joined {
		return true
	}
	// close(ch) as the completion signal, matched against an outer
	// receive or range.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
			if _, isBuiltin := jc.pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				if r, ok := jc.w.refFor(call.Args[0]); ok && jc.recvs[r] {
					joined = true
					return false
				}
			}
		}
		return true
	})
	return joined
}
