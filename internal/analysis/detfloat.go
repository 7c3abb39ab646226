package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detfloat is the bitwise-determinism guardrail for float32 reductions.
//
// The repo's logits are bitwise identical across kernels, run modes,
// and GOMAXPROCS because every output element is reduced through one
// canonical accumulation chain — dotRowGeneric in internal/tensor (and
// its SSE2 row, AVX and AVX-512 one-input and AVX-512 block assembly
// bodies, which implement the same 16-lane order). A
// float32 reduction written anywhere else picks its own association
// order, and float addition does not associate: the moment such a loop
// feeds the pipeline, "bitwise identical" silently degrades to
// "approximately equal". This matters most for the roadmap's AVX2/FMA
// fast mode — wider kernels must land as an explicitly gated mode, not
// as an innocuous-looking loop.
//
// A finding is any for/range loop body that accumulates into a float32
// variable declared outside the loop (s += x, s -= x, s = s + x —
// including FMA-shaped s += a*b, and call-shaped s = f(..., s) folds
// like math.FMA wrappers), outside the sanctioned chains. Indexed
// accumulators (dst[j] += ...) are element-wise updates, not
// reductions, and stay legal. Intentional serial reductions that never
// feed the deterministic pipeline (AbsRowSums' L1 norms) carry a
// lint:ignore with a reason.
func init() {
	Register(&Analyzer{
		Name: "detfloat",
		Doc:  "float32 reductions outside the canonical dotRow chain break bitwise determinism",
		Run:  runDetFloat,
	})
}

// detfloatExempt names the sanctioned accumulation chains — the places
// a float32 reduction loop IS the contract rather than a violation:
// the canonical 16-lane chain (dotRowGeneric, mirrored by the SSE2 row
// and the AVX and AVX-512 span assembly) and the wide 32-lane FMA chain
// (dotRowWideGeneric, mirrored by the AVX2 assembly and gated behind
// KernelChain).
var detfloatExempt = map[string]bool{
	"dotRowGeneric":     true,
	"dotRowWideGeneric": true,
}

func runDetFloat(pass *Pass) []Finding {
	if pass.Pkg.Info == nil {
		return nil
	}
	inTensor := strings.HasSuffix(pass.Pkg.ScopePath(), "internal/tensor")
	var findings []Finding
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inTensor && fd.Recv == nil && detfloatExempt[fd.Name.Name] {
				continue
			}
			df := &detFloatWalker{pass: pass, w: &dfWalker{pass: pass}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ForStmt:
					findings = append(findings, df.checkLoop(n, n.Body)...)
				case *ast.RangeStmt:
					findings = append(findings, df.checkLoop(n, n.Body)...)
				}
				return true
			})
		}
	}
	return findings
}

type detFloatWalker struct {
	pass *Pass
	w    *dfWalker
}

// checkLoop flags float32 accumulations in body whose accumulator is
// declared outside the loop statement.
func (df *detFloatWalker) checkLoop(loop ast.Node, body *ast.BlockStmt) []Finding {
	var findings []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Nested loops report against their own (innermost) body.
			if n != loop {
				return false
			}
		case *ast.AssignStmt:
			if f, ok := df.accumulation(n, loop); ok {
				findings = append(findings, f)
			}
		}
		return true
	})
	return findings
}

// accumulation recognizes s += x / s -= x / s = s ± x reductions into a
// float32 identifier declared before the loop.
func (df *detFloatWalker) accumulation(s *ast.AssignStmt, loop ast.Node) (Finding, bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return Finding{}, false
	}
	id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
	if !ok {
		return Finding{}, false
	}
	obj := df.w.objectOf(id)
	if obj == nil || obj.Pos() >= loop.Pos() {
		return Finding{}, false
	}
	if !isFloat32Basic(obj.Type()) {
		return Finding{}, false
	}
	callShaped := false
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
	case token.ASSIGN:
		switch rhs := ast.Unparen(s.Rhs[0]).(type) {
		case *ast.BinaryExpr:
			// s = s + x (or s + ... anywhere in an additive chain).
			if rhs.Op != token.ADD && rhs.Op != token.SUB {
				return Finding{}, false
			}
			if !mentionsIdent(rhs, obj, df.w) {
				return Finding{}, false
			}
		case *ast.CallExpr:
			// s = f(..., s): a fold through a call — the shape of
			// math.FMA/fma32 wrappers, and every bit as much a serial
			// reduction with its own association order.
			if !mentionsIdent(rhs, obj, df.w) {
				return Finding{}, false
			}
			callShaped = true
		default:
			return Finding{}, false
		}
	default:
		return Finding{}, false
	}
	shape := "float32 reduction"
	switch {
	case callShaped:
		shape = "call-shaped float32 fold"
	case hasMul(s.Rhs[0]):
		shape = "FMA-shaped float32 accumulation"
	}
	return Finding{
		Analyzer: "detfloat",
		Pos:      df.pass.Position(s.Pos()),
		Message: shape + " outside the sanctioned dotRow chains breaks the bitwise " +
			"serial-equivalence contract; reduce through internal/tensor's kernels " +
			"(Dot/Gemv) or gate it behind an explicit fast mode",
	}, true
}

func isFloat32Basic(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float32
}

func mentionsIdent(e ast.Expr, obj types.Object, w *dfWalker) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.objectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func hasMul(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if bin, ok := n.(*ast.BinaryExpr); ok && bin.Op == token.MUL {
			found = true
		}
		return !found
	})
	return found
}
