package analysis

import (
	"fmt"
	"go/ast"
)

// arenaescape guards the scratch-arena lifetime contract of the
// recurrent forward pass: every buffer behind Run and RunBatch — gate
// activations, cell states, the hidden-state ping-pong slab — lives in
// a growth-only *Scratch arena (forwardScratch) that is reused (and
// overwritten) by the next layer or call.
// A value derived from the arena is therefore only valid inside the
// call that produced it: storing one to a heap-reachable location
// (a receiver field, a package-level variable, a channel) or returning
// one from an exported function publishes memory the next Run will
// silently clobber.
//
// The check is transitive through the summary engine: an unexported
// helper may hand arena-backed views to its caller (runLayer returning
// the ping-pong slab) — that is recorded in its summary, not reported —
// and the obligation follows the value until it either dies inside the
// call tree or hits a real sink, which is reported at the sink.
func init() {
	Register(&Analyzer{
		Name: "arenaescape",
		Doc:  "scratch-arena values must not be stored to heap-reachable locations or escape exported functions",
		Run:  runArenaEscape,
	})
}

func runArenaEscape(pass *Pass) []Finding {
	if pass.Pkg.Info == nil {
		return nil
	}
	var findings []Finding
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := declParams(pass, fd)
			fw := newFactsWalker(pass, fd, params)
			fw.run()
			for _, sink := range fw.arenaSinks {
				findings = append(findings, Finding{
					Analyzer: "arenaescape",
					Pos:      pass.Position(sink.pos),
					Message: fmt.Sprintf(
						"scratch-arena value %s: the arena is overwritten by the next forward pass", sink.what),
				})
			}
			if fd.Name.IsExported() {
				for _, pos := range fw.arenaReturns {
					findings = append(findings, Finding{
						Analyzer: "arenaescape",
						Pos:      pass.Position(pos),
						Message: fmt.Sprintf(
							"%s returns a scratch-arena value: callers outside the package would hold memory the next forward pass overwrites", fd.Name.Name),
					})
				}
			}
		}
	}
	return findings
}
