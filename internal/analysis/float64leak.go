package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// float64leak flags float64 arithmetic performed on float32-origin
// values — the precision-drift hazard for the DRS near-zero comparisons
// and the relevance thresholds.
//
// The simulator's tensor data is float32 end to end (matching the
// mobile GPU's FP32 ALUs). A comparison like float64(o[j]) < alpha
// evaluates the threshold against a value carrying ~29 extra mantissa
// bits of round-off pattern; whether an element counts as "trivial"
// can then differ from the float32 pipeline that produced it, shifting
// skip fractions and therefore Table I. The designated home for
// intentional float64 excursions is internal/tensor/activation.go
// (transcendental wrappers, where math.Exp/math.Tanh require float64);
// anything else needs a lint:ignore with a reason.
//
// The analyzer runs as a taint domain on the dataflow engine: taint
// originates at a float64(float32-expr) conversion and survives local
// assignments, short variable declarations and arithmetic chains — so
// v := float64(x); d := v * v is flagged at the multiply even though
// the conversion happened two statements earlier. Taint clears when a
// value is converted back to float32. Conversions that merely cross an
// API boundary (plain assignment, return, non-math call argument) pass;
// each offending operation (arithmetic, comparison, negation, compound
// assignment, math.* argument) reports once, at its outermost node.
func init() {
	Register(&Analyzer{
		Name: "float64leak",
		Doc:  "flag float64 arithmetic on float32-origin values outside internal/tensor/activation.go",
		Run:  runFloat64Leak,
	})
}

// float64leakAllow are file suffixes where float32→float64 excursions
// are the point (transcendental activation wrappers).
var float64leakAllow = []string{"internal/tensor/activation.go"}

func runFloat64Leak(pass *Pass) []Finding {
	if pass.Pkg.Info == nil {
		return nil
	}
	var files []*ast.File
	for _, file := range pass.Pkg.Files {
		if !allowedFile(pass.Position(file.Pos()).Filename, float64leakAllow) {
			files = append(files, file)
		}
	}
	c := &taintClient{pass: pass}
	runDataflow(pass, files, c)
	return c.findings
}

// taintFact marks a float64 value whose bits originated in a float32.
type taintFact struct{}

type taintClient struct {
	pass     *Pass
	findings []Finding
}

func (c *taintClient) evalExpr(ev *env, e ast.Expr) any {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CallExpr:
		if c.pass.f32to64(e) != nil {
			return taintFact{}
		}
		// A float64→float64 re-conversion keeps the origin; any other
		// conversion or call (including float32(x)) launders it.
		if conv, arg := c.conversion(e); conv != nil && isBasicKind(conv, types.Float64) {
			if c.tainted(ev, arg) {
				return taintFact{}
			}
		}
	case *ast.BinaryExpr:
		if arithOnly(e.Op) && (c.tainted(ev, e.X) || c.tainted(ev, e.Y)) {
			return taintFact{}
		}
	case *ast.UnaryExpr:
		if e.Op == token.SUB && c.tainted(ev, e.X) {
			return taintFact{}
		}
	}
	return nil
}

// merge unions: tainted on either path stays tainted.
func (c *taintClient) merge(a, b any) any {
	if a != nil {
		return a
	}
	return b
}

func (c *taintClient) check(ev *env, n ast.Node) {
	inspectNoFuncLit(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.BinaryExpr:
			if arithOrCompare(x.Op) && (c.tainted(ev, x.X) || c.tainted(ev, x.Y)) {
				c.report(x, opContext(x.Op))
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.SUB && c.tainted(ev, x.X) {
				c.report(x, "negation")
				return false
			}
		case *ast.AssignStmt:
			if compoundArith(x.Tok) && len(x.Lhs) == 1 && len(x.Rhs) == 1 &&
				(c.tainted(ev, x.Rhs[0]) || c.tainted(ev, x.Lhs[0])) {
				c.report(x, "compound assignment")
				return false
			}
		case *ast.CallExpr:
			if c.pass.isMathCall(x) {
				for _, a := range x.Args {
					if c.tainted(ev, a) {
						c.report(x, "math.* call")
						return false
					}
				}
			}
		}
		return true
	})
}

func (c *taintClient) tainted(ev *env, e ast.Expr) bool {
	_, ok := ev.eval(e).(taintFact)
	return ok
}

func (c *taintClient) report(n ast.Node, context string) {
	c.findings = append(c.findings, Finding{
		Analyzer: "float64leak",
		Pos:      c.pass.Position(n.Pos()),
		Message:  fmt.Sprintf("float64 %s on a float32-origin value risks threshold drift; keep the computation in float32 or route it through internal/tensor/activation.go", context),
	})
}

// conversion returns (target type, argument) when call is a type
// conversion, else (nil, nil).
func (c *taintClient) conversion(call *ast.CallExpr) (types.Type, ast.Expr) {
	if len(call.Args) != 1 {
		return nil, nil
	}
	tv, ok := c.pass.Pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, nil
	}
	return tv.Type, call.Args[0]
}

func allowedFile(name string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// f32to64 reports whether e (modulo parens) is a float64(x) conversion
// of a float32-typed x, returning the conversion call.
func (p *Pass) f32to64(e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || !isBasicKind(tv.Type, types.Float64) {
		return nil
	}
	if !isBasicKind(p.TypeOf(call.Args[0]), types.Float32) {
		return nil
	}
	return call
}

// isMathCall reports whether the call's callee is a function from the
// standard math package.
func (p *Pass) isMathCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Pkg.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "math"
}

func isBasicKind(t types.Type, kind types.BasicKind) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func arithOnly(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
		return true
	}
	return false
}

func arithOrCompare(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

func compoundArith(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
		return true
	}
	return false
}

func opContext(op token.Token) string {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return "comparison"
	}
	return "arithmetic"
}
