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
// declaration of a loaded package it computes a FuncSummary — a shape
// transfer function (param dims → result dims), alias facts (which
// params a result may alias, whether it aliases a callee-local scratch
// arena or a param's weight fields), escape facts (is a param stored to
// a heap-reachable location) and mutation facts (are an invalidatable
// param's weight fields written, and is Invalidate guaranteed on every
// path). Summaries are param-relative and contain no type-checker
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

// sumKind classifies one summarized result value.
type sumKind int

const (
	sumNone sumKind = iota // not summarized (⊤)
	sumInt                 // integer dimension: D0
	sumVec                 // vector/slice-of-basic: D0 = length
	sumMat                 // tensor matrix: D0 = rows, D1 = cols
	sumVov                 // slice of vectors: D0 = count, D1 = element length
)

// ShapeSum is the shape transfer function of one result: dims whose
// bases are paramSym values (or literals), resolved against the actual
// arguments at each call site.
type ShapeSum struct {
	Kind   sumKind
	D0, D1 dim
}

// propKind names which property of a parameter a summary dim refers to.
type propKind int

const (
	propVal   propKind = iota // the (integer) value itself
	propRows                  // matrix row count
	propCols                  // matrix column count
	propLen                   // vector length
	propCount                 // vector-of-vectors element count
)

// paramSym is a summary dim base: property prop of the value reached
// from parameter index (receiver-first) through the field path. It is
// pure data — no type-checker identities — so cached summaries remain
// valid across type-check worlds.
type paramSym struct {
	index int
	path  string // "" or ".Head" style selector path
	prop  propKind
}

// FuncSummary is the interprocedural abstract of one function. All
// parameter indices are receiver-first: a method's receiver is index 0
// and its first declared parameter index 1.
type FuncSummary struct {
	NumParams int
	Variadic  bool
	// Results holds one shape transfer function per result value.
	Results []ShapeSum
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

	// Concurrency facts (concurrency.go, racecontract.go):

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
	// FieldWrites[i]/FieldReads[i] list the fields of param i the
	// function accesses with no guard of its own: the racecontract
	// check transfers to call sites, which know the guard state
	// (non-nil only when any parameter has unguarded accesses).
	FieldWrites [][]string
	FieldReads  [][]string
	// ResultSettled[i]: result i is a value whose sync.Once completed
	// on every return path (engine() returning a built slot) — callers
	// may access its contracted fields without re-guarding.
	ResultSettled []bool
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
		NumParams:   len(params),
		Variadic:    sig.Variadic(),
		Escapes:     make([]bool, len(params)),
		Mutates:     make([]bool, len(params)),
		Invalidates: make([]bool, len(params)),
	}
	nres := sig.Results().Len()
	s.Results = make([]ShapeSum, nres)
	s.ResultAliases = make([][]int, nres)
	s.ResultWeights = make([][]int, nres)
	s.ResultArena = make([]bool, nres)

	pass := &Pass{Pkg: pkg, prog: pr}
	if nres > 0 {
		rc := &returnCap{
			shapeClient: &shapeClient{pass: pass},
			params:      params,
			nres:        nres,
			named:       namedResults(sig),
		}
		runDataflowFunc(pass, fi.decl.Body, rc)
		if rc.seen {
			s.Results = rc.results
		}
	}
	fw := newFactsWalker(pass, fi.decl, params)
	fw.run()
	fw.fill(s)
	rs := newRaceScanner(pass, fi.decl, params)
	rs.run()
	rs.fill(s)
	cw := newConcWalker(pass, fi.decl, params)
	cw.run()
	cw.fill(s)
	return s
}

// namedResults returns the named result variables of sig, or nil when
// any result is unnamed (bare returns are then not summarized).
func namedResults(sig *types.Signature) []*types.Var {
	res := sig.Results()
	out := make([]*types.Var, res.Len())
	for i := range out {
		v := res.At(i)
		if v.Name() == "" || v.Name() == "_" {
			return nil
		}
		out[i] = v
	}
	return out
}

// returnCap wraps the shape client to capture the facts of every return
// statement and translate them into param-relative shape summaries.
// Findings the wrapped client produces during this pass are discarded —
// the reporting run of shapecheck happens separately.
type returnCap struct {
	*shapeClient
	params  []*types.Var
	nres    int
	named   []*types.Var
	seen    bool
	results []ShapeSum
}

func (rc *returnCap) check(ev *env, n ast.Node) {
	ret, ok := n.(*ast.ReturnStmt)
	if !ok {
		return
	}
	facts := make([]any, rc.nres)
	switch {
	case len(ret.Results) == rc.nres:
		for i, e := range ret.Results {
			facts[i] = ev.eval(e)
		}
	case len(ret.Results) == 0 && rc.named != nil:
		for i, v := range rc.named {
			facts[i] = ev.facts[ref{obj: v}]
		}
	case len(ret.Results) == 1:
		// return f() pass-through of a multi-result callee.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			if vals := rc.shapeClient.evalCallResults(ev, call, rc.nres); len(vals) == rc.nres {
				facts = vals
			}
		}
	}
	shapes := make([]ShapeSum, rc.nres)
	for i, f := range facts {
		shapes[i] = translateShape(f, rc.params)
	}
	if !rc.seen {
		rc.seen = true
		rc.results = shapes
		return
	}
	for i := range rc.results {
		rc.results[i] = mergeShapeSum(rc.results[i], shapes[i])
	}
}

func mergeShapeSum(a, b ShapeSum) ShapeSum {
	if a.Kind != b.Kind {
		return ShapeSum{}
	}
	return ShapeSum{Kind: a.Kind, D0: mergeDim(a.D0, b.D0), D1: mergeDim(a.D1, b.D1)}
}

// translateShape maps a body-space shape fact into param space.
func translateShape(f any, params []*types.Var) ShapeSum {
	switch f := f.(type) {
	case intFact:
		return ShapeSum{Kind: sumInt, D0: translateDim(f.d, params)}
	case vecFact:
		return ShapeSum{Kind: sumVec, D0: translateDim(f.n, params)}
	case matFact:
		return ShapeSum{Kind: sumMat, D0: translateDim(f.rows, params), D1: translateDim(f.cols, params)}
	case vovFact:
		return ShapeSum{Kind: sumVov, D0: translateDim(f.count, params), D1: translateDim(f.elem, params)}
	}
	return ShapeSum{}
}

// translateDim rewrites a body-space dim onto param-relative bases.
// Bases that mention anything a caller cannot name (locals, complex
// paths) translate to ⊤.
func translateDim(d dim, params []*types.Var) dim {
	if !d.known {
		return d
	}
	switch b := d.base.(type) {
	case nil:
		return d
	case types.Object:
		for i, p := range params {
			if b == p {
				return dim{known: true, coef: d.coef, base: paramSym{index: i, prop: propVal}}
			}
		}
	case canonSym:
		prop := propVal
		inner := b.canon
		for _, pf := range [...]struct {
			pre string
			p   propKind
		}{{"rows(", propRows}, {"cols(", propCols}, {"len(", propLen}, {"count(", propCount}} {
			if strings.HasPrefix(inner, pf.pre) && strings.HasSuffix(inner, ")") {
				prop = pf.p
				inner = strings.TrimSuffix(strings.TrimPrefix(inner, pf.pre), ")")
				break
			}
		}
		if strings.ContainsAny(inner, "[]()* ") {
			return dim{}
		}
		root, rest, _ := strings.Cut(inner, ".")
		for i, p := range params {
			if b.root == p && p.Name() == root {
				path := ""
				if rest != "" {
					path = "." + rest
				}
				return dim{known: true, coef: d.coef, base: paramSym{index: i, path: path, prop: prop}}
			}
		}
	}
	return dim{}
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

// variadicCutoff returns the first receiver-first parameter index whose
// summary dims cannot be substituted at this call site (the variadic
// tail), or -1 when every index is usable.
func variadicCutoff(s *FuncSummary, call *ast.CallExpr) int {
	if s.Variadic || call.Ellipsis.IsValid() {
		return s.NumParams - 1
	}
	return -1
}

// --- JSON artifact ---------------------------------------------------

// summaryJSON is the rendered form of one function's summary, written
// by mobilstm-lint -summaries for CI artifacts.
type summaryJSON struct {
	Func        string   `json:"func"`
	Results     []string `json:"results,omitempty"`
	Aliases     []string `json:"result_aliases,omitempty"`
	ArenaResult []int    `json:"arena_results,omitempty"`
	Escapes     []int    `json:"escapes,omitempty"`
	Mutates     []int    `json:"mutates,omitempty"`
	Invalidates []int    `json:"invalidates,omitempty"`

	Spawns        bool     `json:"spawns,omitempty"`
	SpawnsParam   []int    `json:"spawns_param,omitempty"`
	DonesParam    []int    `json:"dones_param,omitempty"`
	CtxWaits      []int    `json:"ctx_waits,omitempty"`
	FieldWrites   []string `json:"field_writes,omitempty"`
	FieldReads    []string `json:"field_reads,omitempty"`
	ResultSettled []int    `json:"result_settled,omitempty"`
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
		j := summaryJSON{Func: k}
		for i, r := range s.Results {
			j.Results = append(j.Results, renderShape(r))
			var parts []string
			for _, p := range s.ResultAliases[i] {
				parts = append(parts, fmt.Sprintf("p%d", p))
			}
			for _, p := range s.ResultWeights[i] {
				parts = append(parts, fmt.Sprintf("weights(p%d)", p))
			}
			j.Aliases = append(j.Aliases, strings.Join(parts, ","))
			if s.ResultArena[i] {
				j.ArenaResult = append(j.ArenaResult, i)
			}
		}
		for i := range s.Escapes {
			if s.Escapes[i] {
				j.Escapes = append(j.Escapes, i)
			}
		}
		for i := range s.Mutates {
			if s.Mutates[i] {
				j.Mutates = append(j.Mutates, i)
			}
		}
		for i := range s.Invalidates {
			if s.Invalidates[i] {
				j.Invalidates = append(j.Invalidates, i)
			}
		}
		j.Spawns = s.Spawns
		for i := range s.SpawnsParam {
			if s.SpawnsParam[i] {
				j.SpawnsParam = append(j.SpawnsParam, i)
			}
		}
		for i := range s.DonesParam {
			if s.DonesParam[i] {
				j.DonesParam = append(j.DonesParam, i)
			}
		}
		for i := range s.CtxWaits {
			if s.CtxWaits[i] {
				j.CtxWaits = append(j.CtxWaits, i)
			}
		}
		for i, fields := range s.FieldWrites {
			if len(fields) > 0 {
				j.FieldWrites = append(j.FieldWrites,
					fmt.Sprintf("p%d:%s", i, strings.Join(fields, "+")))
			}
		}
		for i, fields := range s.FieldReads {
			if len(fields) > 0 {
				j.FieldReads = append(j.FieldReads,
					fmt.Sprintf("p%d:%s", i, strings.Join(fields, "+")))
			}
		}
		for i := range s.ResultSettled {
			if s.ResultSettled[i] {
				j.ResultSettled = append(j.ResultSettled, i)
			}
		}
		// Trim all-empty alias columns for a compact artifact.
		empty := true
		for _, a := range j.Aliases {
			if a != "" {
				empty = false
				break
			}
		}
		if empty {
			j.Aliases = nil
		}
		out = append(out, j)
	}
	return json.MarshalIndent(out, "", "  ")
}

func renderShape(s ShapeSum) string {
	switch s.Kind {
	case sumInt:
		return "int[" + s.D0.String() + "]"
	case sumVec:
		return "vec[" + s.D0.String() + "]"
	case sumMat:
		return "mat[" + s.D0.String() + " x " + s.D1.String() + "]"
	case sumVov:
		return "vecs[" + s.D0.String() + " x " + s.D1.String() + "]"
	}
	return "?"
}
