package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pathWalker is the path-sensitive statement interpreter the guard
// scanner (racecontract) and the all-paths Invalidate check
// (invalidatecheck) share. It owns the control flow, generic over the
// client's abstract state S; the client supplies only transfer
// functions:
//
//   - each branch of an if, and each switch/select clause, runs on its
//     own clone; an arm that ends its path is dropped, the survivors are
//     joined (clauses also with the path where no clause is taken);
//   - a loop body runs twice on a clone (so facts established in
//     iteration one govern iteration two) and joins the zero-iteration
//     path;
//   - return, break/continue/goto and stmtTerminates end a path.
//
// The hooks may mutate and return the state they are given; the walker
// clones before every fork.
type pathWalker[S any] struct {
	info  *types.Info
	clone func(S) S
	join  func(a, b S) S
	// leaf is the transfer function of a simple statement: assignments,
	// expressions, sends, declarations, defer, go, return, and the
	// init/post/comm statements of compound headers.
	leaf func(S, ast.Stmt) S
	// expr is the transfer function of a header expression: an if or
	// for condition, a switch tag or case, a range operand, and (write
	// set) a range key or value. Nil ignores header expressions.
	expr func(st S, e ast.Expr, write bool) S
}

// stmts interprets a statement list, returning the fall-through state
// and whether the path definitely ends inside the list.
func (pw *pathWalker[S]) stmts(st S, list []ast.Stmt) (S, bool) {
	for _, s := range list {
		var ends bool
		if st, ends = pw.stmt(st, s); ends {
			return st, true
		}
	}
	return st, false
}

func (pw *pathWalker[S]) stmt(st S, s ast.Stmt) (S, bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return pw.leaf(st, s), true
	case *ast.BranchStmt:
		return st, s.Tok != token.FALLTHROUGH
	case *ast.BlockStmt:
		return pw.stmts(st, s.List)
	case *ast.LabeledStmt:
		return pw.stmt(st, s.Stmt)
	case *ast.IfStmt:
		return pw.ifStmt(st, s)
	case *ast.ForStmt:
		st = pw.simple(st, s.Init)
		st = pw.header(st, s.Cond, false)
		return pw.loop(st, func(b S) S {
			b, _ = pw.stmts(b, s.Body.List)
			return pw.simple(b, s.Post)
		}), false
	case *ast.RangeStmt:
		st = pw.header(st, s.X, false)
		st = pw.header(st, s.Key, true)
		st = pw.header(st, s.Value, true)
		return pw.loop(st, func(b S) S {
			b, _ = pw.stmts(b, s.Body.List)
			return b
		}), false
	case *ast.SwitchStmt:
		st = pw.simple(st, s.Init)
		return pw.clauses(pw.header(st, s.Tag, false), s.Body), false
	case *ast.TypeSwitchStmt:
		st = pw.simple(st, s.Init)
		return pw.clauses(pw.simple(st, s.Assign), s.Body), false
	case *ast.SelectStmt:
		return pw.clauses(st, s.Body), false
	case *ast.ExprStmt:
		return pw.leaf(st, s), stmtTerminates(pw.info, s)
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.DeferStmt,
		*ast.GoStmt, *ast.SendStmt:
		return pw.leaf(st, s), false
	}
	return st, false
}

// simple applies leaf to an optional header statement.
func (pw *pathWalker[S]) simple(st S, s ast.Stmt) S {
	if s == nil {
		return st
	}
	return pw.leaf(st, s)
}

// header applies expr to an optional header expression.
func (pw *pathWalker[S]) header(st S, e ast.Expr, write bool) S {
	if e == nil || pw.expr == nil {
		return st
	}
	return pw.expr(st, e, write)
}

func (pw *pathWalker[S]) ifStmt(st S, s *ast.IfStmt) (S, bool) {
	st = pw.simple(st, s.Init)
	st = pw.header(st, s.Cond, false)
	thenSt, thenEnds := pw.stmts(pw.clone(st), s.Body.List)
	if s.Else == nil {
		if thenEnds {
			return st, false
		}
		return pw.join(st, thenSt), false
	}
	elseSt, elseEnds := pw.stmt(pw.clone(st), s.Else)
	switch {
	case thenEnds && elseEnds:
		return st, true
	case thenEnds:
		return elseSt, false
	case elseEnds:
		return thenSt, false
	}
	return pw.join(thenSt, elseSt), false
}

// loop runs body twice on a clone and joins the zero-iteration path.
func (pw *pathWalker[S]) loop(st S, body func(S) S) S {
	return pw.join(st, body(body(pw.clone(st))))
}

// clauses interprets each switch/select clause on its own clone and
// joins the survivors with the path where no clause is taken.
func (pw *pathWalker[S]) clauses(st S, body *ast.BlockStmt) S {
	out := pw.clone(st)
	for _, cl := range body.List {
		b := pw.clone(st)
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				b = pw.header(b, e, false)
			}
			list = cl.Body
		case *ast.CommClause:
			b = pw.simple(b, cl.Comm)
			list = cl.Body
		}
		if b, ends := pw.stmts(b, list); !ends {
			out = pw.join(out, b)
		}
	}
	return out
}

// stmtTerminates recognizes statements that never fall through:
// panics (including tensor.Panicf) and process exits.
func stmtTerminates(info *types.Info, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, b := info.Uses[fun].(*types.Builtin)
			return b
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		return name == "Panicf" || name == "Fatal" || name == "Fatalf" || name == "Exit"
	}
	return false
}
