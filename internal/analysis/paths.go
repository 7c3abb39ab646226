package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pathWalker is the path-sensitive statement interpreter behind the
// all-paths Invalidate check (invalidatecheck). It owns the control
// flow, generic over the client's abstract state S; the client supplies
// only a join and a transfer function:
//
//   - each branch of an if, and each switch/select clause, runs on its
//     own copy; an arm that ends its path is dropped, the survivors are
//     joined (clauses also with the path where no clause is taken);
//   - a loop body runs twice on a copy (so facts established in
//     iteration one govern iteration two) and joins the zero-iteration
//     path;
//   - return, break/continue/goto and stmtTerminates end a path.
//
// S is copied by value at every fork, so it must not share mutable
// storage. Header expressions (conditions, switch tags, range operands)
// carry no transfer.
type pathWalker[S any] struct {
	info *types.Info
	join func(a, b S) S
	// leaf is the transfer function of a simple statement: assignments,
	// expressions, sends, declarations, defer, go, return, and the
	// init/post/comm statements of compound headers.
	leaf func(S, ast.Stmt) S
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
		return pw.loop(st, func(b S) S {
			b, _ = pw.stmts(b, s.Body.List)
			return pw.simple(b, s.Post)
		}), false
	case *ast.RangeStmt:
		return pw.loop(st, func(b S) S {
			b, _ = pw.stmts(b, s.Body.List)
			return b
		}), false
	case *ast.SwitchStmt:
		st = pw.simple(st, s.Init)
		return pw.clauses(st, s.Body), false
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

func (pw *pathWalker[S]) ifStmt(st S, s *ast.IfStmt) (S, bool) {
	st = pw.simple(st, s.Init)
	thenSt, thenEnds := pw.stmts(st, s.Body.List)
	if s.Else == nil {
		if thenEnds {
			return st, false
		}
		return pw.join(st, thenSt), false
	}
	elseSt, elseEnds := pw.stmt(st, s.Else)
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

// loop runs body twice on a copy and joins the zero-iteration path.
func (pw *pathWalker[S]) loop(st S, body func(S) S) S {
	return pw.join(st, body(body(st)))
}

// clauses interprets each switch/select clause on its own copy and
// joins the survivors with the path where no clause is taken.
func (pw *pathWalker[S]) clauses(st S, body *ast.BlockStmt) S {
	out := st
	for _, cl := range body.List {
		b := st
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
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
