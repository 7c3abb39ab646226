package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"reflect"
	"sort"
	"strings"
)

// This file is the interprocedural summary engine. For every function
// declaration of a loaded package it computes a FuncSummary — alias
// facts (which params a result may alias, whether it aliases a
// callee-local scratch arena or a param's weight fields), escape facts
// (is a param stored to a heap-reachable location), mutation facts (are
// an invalidatable param's weight fields written, and is Invalidate
// guaranteed on every path) and concurrency facts (concurrency.go).
// Summaries are param-relative and contain no type-checker
// identities, so they survive across runs: a SummaryCache keyed by the
// package's source fingerprint reuses them until a file changes.
//
// Within a package, summaries are computed over the call graph's
// strongly connected components in callees-first order; a cyclic
// component is iterated to a bounded fixpoint and widened to ⊤ (no
// summary) if it has not stabilized. Across packages no cycles exist —
// Go's import graph is acyclic — so a callee package's summaries are
// simply computed on demand first.

// sccFixpointPasses bounds the iteration inside one recursive SCC
// before its members widen to ⊤.
const sccFixpointPasses = 3

// FuncSummary is the interprocedural abstract of one function. All
// parameter indices are receiver-first: a method's receiver is index 0
// and its first declared parameter index 1.
type FuncSummary struct {
	// ResultAliases[i] lists params result i may alias (arena slabs and
	// plain slice/pointer pass-through both land here).
	ResultAliases [][]int
	// ResultWeights[i] lists invalidatable params whose weight fields
	// result i may alias (l.UMatrices() → receiver's U matrices).
	ResultWeights [][]int
	// ResultArena[i] marks a result aliasing a scratch arena allocated
	// inside the callee — tainted at every call site.
	ResultArena []bool
	// Escapes[i]: a value derived from param i may be stored to a
	// heap-reachable location, sent on a channel, or passed to a callee
	// that escapes it.
	Escapes []bool
	// Mutates[i]: the weight fields of (invalidatable) param i are
	// written without a guaranteed Invalidate — callers inherit the
	// obligation.
	Mutates []bool
	// Invalidates[i]: param i's Invalidate is called on every path to
	// return, so the function also discharges the caller's obligation
	// (wrapper verification).
	Invalidates []bool

	// Concurrency facts (concurrency.go), read by goroutinejoin:

	// Spawns: the function may start a goroutine, directly or through a
	// callee.
	Spawns bool
	// SpawnsParam[i]: param i is retained or invoked on a spawned
	// goroutine (the function value handed to Daemons.Go, a struct
	// captured by a spawned literal), transitively through callees.
	SpawnsParam []bool
	// DonesParam[i]: param i is a WaitGroup the function calls Done on
	// (directly, deferred, or through a callee) — join evidence for a
	// goroutine running this function.
	DonesParam []bool
	// CtxWaits[i]: the function blocks on a channel or context rooted
	// at param i (receive, range, select, <-ctx.Done()) — its lifetime
	// is bounded by that parameter.
	CtxWaits []bool
}

// summaryKey names a function across type-check worlds: go/types
// FullName includes the package path and receiver type, and the string
// form is identical whether the object came from the base package or a
// re-type-checked [tests] sibling.
func summaryKey(obj *types.Func) string { return obj.FullName() }

// pkgSummaries holds one package's computed summaries.
type pkgSummaries struct {
	funcs map[string]*FuncSummary
}

// SummaryCache carries summaries across Analyze runs, keyed by import
// path and invalidated by a content fingerprint of the package's source
// files. The zero cache is not usable; construct with NewSummaryCache.
type SummaryCache struct {
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	fingerprint string
	sums        *pkgSummaries
}

// NewSummaryCache returns an empty summary cache.
func NewSummaryCache() *SummaryCache {
	return &SummaryCache{entries: map[string]*cacheEntry{}}
}

// defaultSummaryCache backs passes that were constructed without an
// explicit Program (direct fixture tests, single-shot API calls).
var defaultSummaryCache = NewSummaryCache()

// fingerprintPackage hashes the package's source files (sorted name +
// content). An empty string means "not fingerprintable" — in-memory
// fixtures — and disables cross-run caching for the package.
func fingerprintPackage(pkg *Package) string {
	var names []string
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if name == "" || seen[name] {
			return ""
		}
		seen[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return ""
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Program is the world of loaded packages one Analyze run shares:
// summaries computed for any package are visible to every pass.
type Program struct {
	pkgs     map[string]*Package // base packages by import path
	computed map[string]*pkgSummaries
	inflight map[string]*pkgSummaries // partially computed (SCC iteration)
	cache    *SummaryCache
}

// newProgram indexes the base (non-test) packages. Test packages
// re-type-check the base sources into a fresh types world, but summary
// keys are strings, so their passes resolve into the base summaries.
func newProgram(pkgs []*Package, cache *SummaryCache) *Program {
	if cache == nil {
		cache = defaultSummaryCache
	}
	pr := &Program{
		pkgs:     map[string]*Package{},
		computed: map[string]*pkgSummaries{},
		inflight: map[string]*pkgSummaries{},
		cache:    cache,
	}
	for _, pkg := range pkgs {
		if pkg.ForTest == "" {
			pr.pkgs[pkg.ImportPath] = pkg
		}
	}
	return pr
}

// summaryFor resolves the summary of a called function, computing its
// package's summaries on demand. Returns nil (⊤) for functions outside
// the loaded world, interface methods, and widened recursion.
func (pr *Program) summaryFor(obj *types.Func) *FuncSummary {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	pkg := pr.pkgs[obj.Pkg().Path()]
	if pkg == nil {
		return nil
	}
	return pr.packageSummaries(pkg).funcs[summaryKey(obj)]
}

// packageSummaries computes (or retrieves) every summary of pkg.
func (pr *Program) packageSummaries(pkg *Package) *pkgSummaries {
	path := pkg.ImportPath
	if ps := pr.computed[path]; ps != nil {
		return ps
	}
	if ps := pr.inflight[path]; ps != nil {
		return ps
	}
	fp := fingerprintPackage(pkg)
	if fp != "" {
		if ce := pr.cache.entries[path]; ce != nil && ce.fingerprint == fp {
			pr.computed[path] = ce.sums
			return ce.sums
		}
	}
	ps := &pkgSummaries{funcs: map[string]*FuncSummary{}}
	pr.inflight[path] = ps
	g := buildCallGraph(pkg)
	for _, comp := range g.sccs() {
		if !recursive(comp) {
			fi := comp[0]
			ps.funcs[summaryKey(fi.obj)] = pr.summarize(pkg, fi)
			continue
		}
		// Recursive component: iterate to a bounded fixpoint; widen
		// every member to ⊤ if it has not stabilized.
		stable := false
		for iter := 0; iter < sccFixpointPasses && !stable; iter++ {
			stable = true
			for _, fi := range comp {
				key := summaryKey(fi.obj)
				s := pr.summarize(pkg, fi)
				if !reflect.DeepEqual(s, ps.funcs[key]) {
					stable = false
				}
				ps.funcs[key] = s
			}
		}
		if !stable {
			for _, fi := range comp {
				delete(ps.funcs, summaryKey(fi.obj))
			}
		}
	}
	delete(pr.inflight, path)
	pr.computed[path] = ps
	if fp != "" {
		pr.cache.entries[path] = &cacheEntry{fingerprint: fp, sums: ps}
	}
	return ps
}

// paramVarsOf returns the receiver-first parameter variables of sig.
func paramVarsOf(sig *types.Signature) []*types.Var {
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// summarize computes one function's summary from its body, using the
// current state of the program's summary tables for callees.
func (pr *Program) summarize(pkg *Package, fi *funcInfo) *FuncSummary {
	sig, ok := fi.obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	params := paramVarsOf(sig)
	s := &FuncSummary{
		Escapes:     make([]bool, len(params)),
		Mutates:     make([]bool, len(params)),
		Invalidates: make([]bool, len(params)),
	}
	pass := &Pass{Pkg: pkg, prog: pr}
	fw := newFactsWalker(pass, fi.decl, params)
	fw.run()
	fw.fill(s)
	cw := newConcWalker(pass, fi.decl, params)
	cw.run()
	cw.fill(s)
	return s
}

// --- call-site resolution -------------------------------------------

// calleeFunc resolves a call expression to its concrete *types.Func and
// the receiver-first argument list. Interface dispatch, function-typed
// values and method-value calls resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, []ast.Expr) {
	if info == nil {
		return nil, nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			return obj, call.Args
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, nil
			}
			obj, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, nil
			}
			if _, abstract := sel.Recv().Underlying().(*types.Interface); abstract {
				return nil, nil
			}
			return obj, append([]ast.Expr{fun.X}, call.Args...)
		}
		// Package-qualified call: pkg.Func(...).
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return obj, call.Args
		}
	}
	return nil, nil
}

// --- JSON artifact ---------------------------------------------------

// summaryJSON is the rendered form of one function's summary, written
// by mobilstm-lint -summaries for CI artifacts.
type summaryJSON struct {
	Func        string   `json:"func"`
	Aliases     []string `json:"result_aliases,omitempty"`
	ArenaResult []int    `json:"arena_results,omitempty"`
	Escapes     []int    `json:"escapes,omitempty"`
	Mutates     []int    `json:"mutates,omitempty"`
	Invalidates []int    `json:"invalidates,omitempty"`

	Spawns      bool  `json:"spawns,omitempty"`
	SpawnsParam []int `json:"spawns_param,omitempty"`
	DonesParam  []int `json:"dones_param,omitempty"`
	CtxWaits    []int `json:"ctx_waits,omitempty"`
}

// DumpSummaries computes (or retrieves) the summaries of every base
// package and renders them as deterministic JSON.
func DumpSummaries(pkgs []*Package, cache *SummaryCache) ([]byte, error) {
	pr := newProgram(pkgs, cache)
	all := map[string]*FuncSummary{}
	for _, pkg := range pkgs {
		if pkg.ForTest != "" {
			continue
		}
		for key, s := range pr.packageSummaries(pkg).funcs {
			all[key] = s
		}
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]summaryJSON, 0, len(keys))
	for _, k := range keys {
		s := all[k]
		j := summaryJSON{
			Func:        k,
			ArenaResult: trueIndices(s.ResultArena),
			Escapes:     trueIndices(s.Escapes),
			Mutates:     trueIndices(s.Mutates),
			Invalidates: trueIndices(s.Invalidates),
			Spawns:      s.Spawns,
			SpawnsParam: trueIndices(s.SpawnsParam),
			DonesParam:  trueIndices(s.DonesParam),
			CtxWaits:    trueIndices(s.CtxWaits),
		}
		// One alias column per result, omitted when every column is empty.
		for i := range s.ResultAliases {
			var parts []string
			for _, p := range s.ResultAliases[i] {
				parts = append(parts, fmt.Sprintf("p%d", p))
			}
			for _, p := range s.ResultWeights[i] {
				parts = append(parts, fmt.Sprintf("weights(p%d)", p))
			}
			j.Aliases = append(j.Aliases, strings.Join(parts, ","))
		}
		if strings.Join(j.Aliases, "") == "" {
			j.Aliases = nil
		}
		out = append(out, j)
	}
	return json.MarshalIndent(out, "", "  ")
}

// trueIndices lists the indices of bs that are set, or nil.
func trueIndices(bs []bool) []int {
	var out []int
	for i, b := range bs {
		if b {
			out = append(out, i)
		}
	}
	return out
}
