package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// kernelcontracts is the completeness check for shapecheck's contract
// tables. shapecheck verifies call sites against two registries — the
// tensor call-site switch and the kernels.Builder kernelContracts
// table — and a kernel added without a registry entry is silently
// unchecked: every call site type-checks, shapecheck stays green, and
// the first bad dimension surfaces as a runtime Panicf. This analyzer
// closes the gap from the definition side:
//
//   - an exported top-level function in internal/tensor, or exported
//     method of its Kernels family, taking kernel data (a Vector or
//     length-checked slice, a Matrix, or a slice of vectors) must
//     appear in tensorKernelCoverage — the names the call-site switch
//     handles, plus the shape-free reductions that are deliberately
//     exempt;
//   - an exported kernels.Builder cost constructor (a method returning
//     KernelSpec, (KernelSpec, bool), or []KernelSpec) must have a
//     kernelContracts row.
//
// Growing either package means updating the matching table in the same
// change, which is exactly the reminder this analyzer encodes.
func init() {
	Register(&Analyzer{
		Name: "kernelcontracts",
		Doc:  "every exported kernel must be registered in shapecheck's contract tables",
		Run:  runKernelContracts,
	})
}

// tensorKernelCoverage lists the exported tensor functions shapecheck
// accounts for: the call-site switch cases, the shape-deriving
// AbsRowSums (handled in vectorFact), and the shape-free single-vector
// reductions ArgMax and MaxAbs, which have no cross-argument dimension
// contract to check.
var tensorKernelCoverage = map[string]bool{
	"Gemv": true, "PackedGemv": true, "PackedGemvRows": true,
	"PackedGemm": true, "PackedGemmRows": true,
	"WidePackedGemv": true, "WidePackedGemmRows": true,
	"Pack": true,
	"Add":  true, "Mul": true,
	"SigmoidVec": true, "HardSigmoidVec": true, "TanhVec": true,
	"AbsRowSums": true,
	"ArgMax":     true, "MaxAbs": true,
}

func runKernelContracts(pass *Pass) []Finding {
	if pass.Pkg.Info == nil {
		return nil
	}
	scope := pass.Pkg.ScopePath()
	switch {
	case strings.HasSuffix(scope, tensorPkgSuffix):
		return tensorCoverage(pass)
	case strings.HasSuffix(scope, kernelsPkgSuffix):
		return builderCoverage(pass)
	}
	return nil
}

// tensorCoverage flags exported tensor functions and Kernels methods
// that take kernel data but are unknown to shapecheck.
func tensorCoverage(pass *Pass) []Finding {
	var findings []Finding
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv != nil && !isNamedIn(pass.TypeOf(fd.Recv.List[0].Type), tensorPkgSuffix, "Kernels") {
				continue
			}
			if tensorKernelCoverage[fd.Name.Name] || !takesKernelData(pass, fd) {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: "kernelcontracts",
				Pos:      pass.Position(fd.Pos()),
				Message: fmt.Sprintf("exported kernel tensor.%s is not covered by shapecheck: "+
					"add a call-site case (or a tensorKernelCoverage entry if it has no "+
					"cross-argument shape contract)", fd.Name.Name),
			})
		}
	}
	return findings
}

// takesKernelData reports whether any parameter carries kernel data: a
// length-checked slice, a tensor matrix, or a slice of vectors.
func takesKernelData(pass *Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isLengthChecked(t) || isTensorMatrix(t) || isVecSlice(t) {
			return true
		}
	}
	return false
}

// builderCoverage flags exported Builder cost constructors with no
// kernelContracts row.
func builderCoverage(pass *Pass) []Finding {
	var findings []Finding
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			if !isBuilderRecv(pass, fd) || !returnsKernelSpec(pass, fd) {
				continue
			}
			if _, covered := kernelContracts[fd.Name.Name]; covered {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: "kernelcontracts",
				Pos:      pass.Position(fd.Pos()),
				Message: fmt.Sprintf("Builder cost constructor %s has no kernelContracts row: "+
					"record its dimension contract so shapecheck can verify call sites", fd.Name.Name),
			})
		}
	}
	return findings
}

// isBuilderRecv reports whether fd's receiver is (a pointer to) the
// kernels package's Builder type.
func isBuilderRecv(pass *Pass, fd *ast.FuncDecl) bool {
	return len(fd.Recv.List) == 1 && isNamedIn(pass.TypeOf(fd.Recv.List[0].Type), kernelsPkgSuffix, "Builder")
}

// returnsKernelSpec recognizes the cost-constructor result shapes:
// KernelSpec, (KernelSpec, bool), or []KernelSpec. The spec type is
// matched by name alone so fixtures with a local KernelSpec type
// participate.
func returnsKernelSpec(pass *Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	res := obj.Type().(*types.Signature).Results()
	switch res.Len() {
	case 1:
		t := res.At(0).Type()
		if isKernelSpecNamed(t) {
			return true
		}
		if s, ok := t.Underlying().(*types.Slice); ok {
			return isKernelSpecNamed(s.Elem())
		}
	case 2:
		b, ok := res.At(1).Type().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Bool && isKernelSpecNamed(res.At(0).Type())
	}
	return false
}

func isKernelSpecNamed(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "KernelSpec"
}
