package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// racecontract enforces the shared-struct guard contracts the serving
// path lives by: once a struct field is published to another goroutine,
// every access must happen under the same discipline that created it.
//
// The analyzer infers contracts instead of requiring annotations. A
// contract exists for field T.f when any write to x.f happens with a
// same-base guard in force — inside x.once.Do(...), or with x.mu held —
// because guarding one write is the programmer stating "this field is
// shared". Every other access to T.f in the package must then be
// exempt: under any same-base guard (guardedness, not guard identity —
// the engine does not prove two mutexes distinct), after a completed
// once.Do on the base (including bases bound from a callee whose
// summary proves its result settled — ResultSettled), or on a base the
// function provably allocated itself and has not yet published.
//
// The check is wrapper-aware through summaries: an unexported helper's
// unguarded accesses to a parameter's fields transfer to its call sites
// (FieldWrites/FieldReads), where they are re-checked under the
// caller's guard state — so engineSlot.build writing its fields inside
// engine()'s once.Do is the evidence, not a violation. Exported
// functions cannot lean on in-module callers and are checked locally.
//
// On top of the contract rule sit two publication rules, tracked by the
// same path scan: a field write after the base value was published to
// another goroutine (go-capture, channel send, atomic store, spawn
// argument) is a finding, and a spawned goroutine's unguarded field
// write that can overlap an unguarded access to the same field in the
// spawning function is a finding. Reads after publication are
// deliberately not flagged — the reply-channel handoff idiom (send
// request, block on response, read results) is safe by the channel's
// happens-before edge and would drown the signal in false positives.
func init() {
	Register(&Analyzer{
		Name: "racecontract",
		Doc:  "published struct fields must keep their lock/once guard discipline on every access",
		Run:  runRaceContract,
	})
}

// fieldAccess is one struct-field access the scanner observed (or
// synthesized from a callee summary at a call site).
type fieldAccess struct {
	pos     token.Pos
	base    types.Object    // plain-identifier base of the selector
	owner   *types.TypeName // named struct type owning the field
	field   string
	write   bool
	guarded bool     // exempt: held guard, settled once, or unpublished local alloc
	guards  []string // the held lock/Do guards — evidence-grade when non-empty
	inSpawn bool     // inside a spawned goroutine's body
	synth   bool     // synthesized from a callee's FieldWrites/FieldReads

	spawnPos token.Pos // for inSpawn accesses: the spawn site
	transfer bool      // recorded into the summary instead of checked locally
}

// raceState is the per-path abstract state of the guard scanner.
type raceState struct {
	// held maps a base object to the set of its guard fields currently
	// held ("mu" after x.mu.Lock(), "once" inside x.once.Do(...)).
	held map[types.Object]map[string]bool
	// settled marks bases whose once.Do has completed on this path.
	settled map[types.Object]bool
	// published maps bases to the position where they became reachable
	// from another goroutine on this path.
	published map[types.Object]token.Pos
}

func newRaceState() *raceState {
	return &raceState{
		held:      map[types.Object]map[string]bool{},
		settled:   map[types.Object]bool{},
		published: map[types.Object]token.Pos{},
	}
}

func (st *raceState) clone() *raceState {
	out := newRaceState()
	for b, gs := range st.held {
		cp := make(map[string]bool, len(gs))
		for g := range gs {
			cp[g] = true
		}
		out.held[b] = cp
	}
	for b := range st.settled {
		out.settled[b] = true
	}
	for b, p := range st.published {
		out.published[b] = p
	}
	return out
}

// join merges two branch states: guards and settledness must hold on
// both paths (intersection); publication on either path is publication
// (union — a write after the join races with the publishing path).
func joinRaceStates(a, b *raceState) *raceState {
	out := newRaceState()
	for base, gs := range a.held {
		if ogs := b.held[base]; ogs != nil {
			both := map[string]bool{}
			for g := range gs {
				if ogs[g] {
					both[g] = true
				}
			}
			if len(both) > 0 {
				out.held[base] = both
			}
		}
	}
	for base := range a.settled {
		if b.settled[base] {
			out.settled[base] = true
		}
	}
	for base, p := range a.published {
		out.published[base] = p
	}
	for base, p := range b.published {
		if _, ok := out.published[base]; !ok {
			out.published[base] = p
		}
	}
	return out
}

func (st *raceState) hold(base types.Object, guard string) {
	gs := st.held[base]
	if gs == nil {
		gs = map[string]bool{}
		st.held[base] = gs
	}
	gs[guard] = true
}

func (st *raceState) release(base types.Object, guard string) {
	if gs := st.held[base]; gs != nil {
		delete(gs, guard)
		if len(gs) == 0 {
			delete(st.held, base)
		}
	}
}

// raceScanner walks one declaration with guard state, collecting field
// accesses, publication-rule findings, and the summary facts
// (FieldWrites/FieldReads/ResultSettled) the wrapper-awareness needs.
type raceScanner struct {
	pass    *Pass
	w       *dfWalker
	decl    *ast.FuncDecl
	params  map[types.Object]int
	nparams int
	nres    int
	locals  map[types.Object]bool // flow-insensitive fresh-allocation set

	paths   pathWalker[*raceState]
	inSpawn bool // scanning a spawned goroutine's body

	accs []fieldAccess
	pubs []Finding // publication-rule (R2) findings

	retSeen    bool
	retSettled []bool
}

func newRaceScanner(pass *Pass, decl *ast.FuncDecl, params []*types.Var) *raceScanner {
	sc := &raceScanner{
		pass:    pass,
		w:       &dfWalker{pass: pass},
		decl:    decl,
		params:  map[types.Object]int{},
		nparams: len(params),
		locals:  map[types.Object]bool{},
	}
	for i, p := range params {
		sc.params[p] = i
	}
	sc.paths = pathWalker[*raceState]{
		info:  pass.Pkg.Info,
		clone: (*raceState).clone,
		join:  joinRaceStates,
		leaf:  sc.leaf,
		expr: func(st *raceState, e ast.Expr, write bool) *raceState {
			if write {
				sc.scanWrite(st, e)
			} else {
				sc.scanExpr(st, e)
			}
			return st
		},
	}
	if obj, ok := pass.Pkg.Info.Defs[decl.Name].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok {
			sc.nres = sig.Results().Len()
		}
	}
	return sc
}

func (sc *raceScanner) run() {
	if sc.decl.Body == nil {
		return
	}
	sc.findLocals()
	sc.paths.stmts(newRaceState(), sc.decl.Body.List)
}

// findLocals marks every identifier the declaration binds to a fresh
// allocation (&T{}, T{}, new(T)) anywhere in its body — flow-insensitive
// on purpose: the exemption only suppresses findings, and a local that
// is fresh on any binding is owned until published.
func (sc *raceScanner) findLocals() {
	bind := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		// A fresh allocation is owned, and so is a struct value copy
		// (o := opt): assignment of a non-pointer struct clones its
		// storage, so the binding cannot alias the source.
		if !isFreshAlloc(ast.Unparen(rhs)) && !isStructValue(sc.pass.TypeOf(rhs)) {
			return
		}
		if obj := sc.w.objectOf(id); obj != nil {
			sc.locals[obj] = true
		}
	}
	ast.Inspect(sc.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
}

// isStructValue reports whether t is a struct held by value (not
// behind a pointer), so assignment copies it.
func isStructValue(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

func isFreshAlloc(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new"
		}
	}
	return false
}

// --- statements -------------------------------------------------------

// leaf is the guard scanner's transfer function for one simple
// statement; pathWalker supplies the control flow around it.
func (sc *raceScanner) leaf(st *raceState, s ast.Stmt) *raceState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		sc.scanExpr(st, s.X)
	case *ast.AssignStmt:
		sc.scanAssign(st, s)
	case *ast.IncDecStmt:
		sc.scanWrite(st, s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.scanExpr(st, v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		sc.scanDefer(st, s.Call)
	case *ast.GoStmt:
		sc.scanGo(st, s)
	case *ast.SendStmt:
		sc.scanExpr(st, s.Chan)
		sc.scanExpr(st, s.Value)
		sc.publishExpr(st, s.Value, s.Pos())
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			sc.scanExpr(st, r)
		}
		sc.recordReturn(st, s)
	}
	return st
}

func (sc *raceScanner) recordReturn(st *raceState, s *ast.ReturnStmt) {
	if sc.nres == 0 || len(s.Results) != sc.nres {
		if sc.nres > 0 {
			sc.retSeen = true
			sc.retSettled = make([]bool, sc.nres)
		}
		return
	}
	settled := make([]bool, sc.nres)
	for i, r := range s.Results {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok {
			if obj := sc.w.objectOf(id); obj != nil && st.settled[obj] {
				settled[i] = true
			}
		}
	}
	if !sc.retSeen {
		sc.retSeen = true
		sc.retSettled = settled
		return
	}
	for i := range sc.retSettled {
		sc.retSettled[i] = sc.retSettled[i] && settled[i]
	}
}

// --- assignment / calls ----------------------------------------------

func (sc *raceScanner) scanAssign(st *raceState, s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		sc.scanExpr(st, r)
	}
	// x := helper(...) where the helper proves its result settled
	// (engine() returning a slot after once.Do) settles x.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if obj, _ := calleeFunc(sc.pass.Pkg.Info, call); obj != nil {
				if sum := sc.pass.program().summaryFor(obj); sum != nil {
					for i, lhs := range s.Lhs {
						if i >= len(sum.ResultSettled) || !sum.ResultSettled[i] {
							continue
						}
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							if o := sc.w.objectOf(id); o != nil {
								st.settled[o] = true
							}
						}
					}
				}
			}
		}
	}
	for _, l := range s.Lhs {
		sc.scanWrite(st, l)
	}
}

func (sc *raceScanner) scanDefer(st *raceState, call *ast.CallExpr) {
	// defer x.mu.Unlock() keeps the guard held for the rest of the
	// function; other deferred calls are scanned for accesses on a
	// throwaway state (they run later, but their receivers and
	// arguments are evaluated here).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
			if isMutexType(sc.pass.TypeOf(sel.X)) {
				return
			}
		}
	}
	sc.scanCall(st.clone(), call)
}

func (sc *raceScanner) scanGo(st *raceState, s *ast.GoStmt) {
	call := s.Call
	for _, arg := range call.Args {
		sc.scanExpr(st, arg)
		sc.publishExpr(st, arg, s.Pos())
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, v := range capturedVars(sc.w, lit) {
			if namedStructOf(v.Type()) != nil {
				st.published[v] = s.Pos()
			}
		}
		fresh := newRaceState()
		sc.scanSpawnBody(fresh, lit.Body.List, s.Pos())
		return
	}
	// go fn(args) / go x.m(args): the callee body runs concurrently —
	// synthesize its unguarded parameter-field accesses under a fresh
	// (nothing-held) spawned state.
	sc.synthesizeCall(newRaceState(), call, true, s.Pos())
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		sc.publishExpr(st, sel.X, s.Pos())
	}
}

// scanSpawnBody scans a spawned literal's body as spawned code and
// stamps the spawn site on every access collected from it.
func (sc *raceScanner) scanSpawnBody(st *raceState, list []ast.Stmt, spawnPos token.Pos) {
	mark := len(sc.accs)
	outer := sc.inSpawn
	sc.inSpawn = true
	sc.paths.stmts(st, list)
	sc.inSpawn = outer
	var lo, hi token.Pos
	if len(list) > 0 {
		lo, hi = list[0].Pos(), list[len(list)-1].End()
	}
	for i := mark; i < len(sc.accs); i++ {
		a := &sc.accs[i]
		if a.inSpawn && a.spawnPos == token.NoPos {
			a.spawnPos = spawnPos
		}
		// A local declared inside the spawned body is the goroutine's
		// own storage, not shared state captured from the spawner.
		if !a.guarded && a.base != nil && sc.locals[a.base] &&
			a.base.Pos() >= lo && a.base.Pos() < hi {
			a.guarded = true
		}
	}
}

// publishExpr marks a plain-identifier struct value as published.
func (sc *raceScanner) publishExpr(st *raceState, e ast.Expr, pos token.Pos) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := sc.w.objectOf(id).(*types.Var)
	if !ok || namedStructOf(obj.Type()) == nil {
		return
	}
	if _, done := st.published[obj]; !done {
		st.published[obj] = pos
	}
}

func (sc *raceScanner) scanCall(st *raceState, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		recvT := sc.pass.TypeOf(sel.X)
		switch {
		case (name == "Lock" || name == "RLock") && isMutexType(recvT):
			if base, guard := sc.guardPath(sel.X); base != nil {
				st.hold(base, guard)
			}
			return
		case (name == "Unlock" || name == "RUnlock") && isMutexType(recvT):
			if base, guard := sc.guardPath(sel.X); base != nil {
				st.release(base, guard)
			}
			return
		case name == "Do" && isOnceType(recvT) && len(call.Args) == 1:
			base, guard := sc.guardPath(sel.X)
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
				inner := st.clone()
				if base != nil {
					inner.hold(base, guard)
				}
				sc.paths.stmts(inner, lit.Body.List)
			} else {
				sc.scanExpr(st, call.Args[0])
			}
			if base != nil {
				st.settled[base] = true
			}
			return
		case (name == "Store" || name == "Swap" || name == "CompareAndSwap") && isAtomicGuard(recvT):
			for _, arg := range call.Args {
				sc.scanExpr(st, arg)
				sc.publishExpr(st, arg, call.Pos())
			}
			sc.scanExpr(st, sel.X)
			return
		}
		sc.scanExpr(st, sel.X)
	}
	for i, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if sc.argSpawned(call, i) {
				sc.scanSpawnBody(newRaceState(), lit.Body.List, call.Pos())
				for _, v := range capturedVars(sc.w, lit) {
					if namedStructOf(v.Type()) != nil {
						st.published[v] = call.Pos()
					}
				}
			} else {
				// Ordinary literal: inherits the state in force at its
				// creation (the bump-closure idiom reads settled fields).
				sc.paths.stmts(st.clone(), lit.Body.List)
			}
			continue
		}
		sc.scanExpr(st, arg)
		if sc.argSpawned(call, i) {
			sc.publishExpr(st, arg, call.Pos())
			// A spawned method value (daemons.Go(s.batchLoop)) runs its
			// body concurrently on its receiver.
			if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
				if m, ok := sc.pass.Pkg.Info.Uses[sel.Sel].(*types.Func); ok {
					sc.synthesizeMethodValue(m, sel.X, call.Pos())
				}
				sc.publishExpr(st, sel.X, call.Pos())
			}
		}
	}
	sc.synthesizeCall(st, call, sc.inSpawn, token.NoPos)
}

// argSpawned reports whether argument i of call is retained on a
// goroutine by the callee (SpawnsParam through summaries).
func (sc *raceScanner) argSpawned(call *ast.CallExpr, i int) bool {
	obj, rargs := calleeFunc(sc.pass.Pkg.Info, call)
	if obj == nil {
		return false
	}
	sum := sc.pass.program().summaryFor(obj)
	if sum == nil {
		return false
	}
	// Map the plain argument index onto the receiver-first list.
	off := len(rargs) - len(call.Args)
	j := i + off
	return j >= 0 && j < len(sum.SpawnsParam) && sum.SpawnsParam[j]
}

// synthesizeCall replays a callee's summarized unguarded field accesses
// against the caller's state at the call site: build() writing slot
// fields becomes an access to slot here, guarded by whatever guards
// slot at this point (that guard is then the contract evidence).
func (sc *raceScanner) synthesizeCall(st *raceState, call *ast.CallExpr, inSpawn bool, spawnPos token.Pos) {
	obj, rargs := calleeFunc(sc.pass.Pkg.Info, call)
	if obj == nil {
		return
	}
	sum := sc.pass.program().summaryFor(obj)
	if sum == nil || (sum.FieldWrites == nil && sum.FieldReads == nil) {
		return
	}
	for j, arg := range rargs {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		base, ok := sc.w.objectOf(id).(*types.Var)
		if !ok {
			continue
		}
		owner := namedStructOf(base.Type())
		if owner == nil {
			continue
		}
		if j < len(sum.FieldWrites) {
			for _, f := range sum.FieldWrites[j] {
				sc.record(st, call.Pos(), base, owner, f, true, inSpawn, spawnPos, true)
			}
		}
		if j < len(sum.FieldReads) {
			for _, f := range sum.FieldReads[j] {
				sc.record(st, call.Pos(), base, owner, f, false, inSpawn, spawnPos, true)
			}
		}
	}
}

// synthesizeMethodValue replays a spawned method value's summarized
// accesses on its receiver under a fresh spawned state.
func (sc *raceScanner) synthesizeMethodValue(m *types.Func, recv ast.Expr, spawnPos token.Pos) {
	sum := sc.pass.program().summaryFor(m)
	if sum == nil {
		return
	}
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return
	}
	base, ok := sc.w.objectOf(id).(*types.Var)
	if !ok {
		return
	}
	owner := namedStructOf(base.Type())
	if owner == nil {
		return
	}
	fresh := newRaceState()
	if len(sum.FieldWrites) > 0 {
		for _, f := range sum.FieldWrites[0] {
			sc.record(fresh, spawnPos, base, owner, f, true, true, spawnPos, true)
		}
	}
	if len(sum.FieldReads) > 0 {
		for _, f := range sum.FieldReads[0] {
			sc.record(fresh, spawnPos, base, owner, f, false, true, spawnPos, true)
		}
	}
}

// guardPath splits a guard access path (x.mu, x.once) into its
// plain-identifier base and guard field name. Guards not rooted at a
// plain identifier (package-level mutexes, nested paths) return nil —
// the scanner then simply knows less.
func (sc *raceScanner) guardPath(e ast.Expr) (types.Object, string) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, ""
	}
	obj, ok := sc.w.objectOf(id).(*types.Var)
	if !ok {
		return nil, ""
	}
	return obj, sel.Sel.Name
}

// --- expressions ------------------------------------------------------

func (sc *raceScanner) scanExpr(st *raceState, e ast.Expr) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sc.access(st, e, false)
		sc.scanExpr(st, e.X)
	case *ast.CallExpr:
		sc.scanCall(st, e)
	case *ast.FuncLit:
		sc.paths.stmts(st.clone(), e.Body.List)
	case *ast.BinaryExpr:
		sc.scanExpr(st, e.X)
		sc.scanExpr(st, e.Y)
	case *ast.UnaryExpr:
		sc.scanExpr(st, e.X)
	case *ast.StarExpr:
		sc.scanExpr(st, e.X)
	case *ast.IndexExpr:
		sc.scanExpr(st, e.X)
		sc.scanExpr(st, e.Index)
	case *ast.IndexListExpr:
		sc.scanExpr(st, e.X)
	case *ast.SliceExpr:
		sc.scanExpr(st, e.X)
		sc.scanExpr(st, e.Low)
		sc.scanExpr(st, e.High)
		sc.scanExpr(st, e.Max)
	case *ast.TypeAssertExpr:
		sc.scanExpr(st, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				sc.scanExpr(st, kv.Value)
				continue
			}
			sc.scanExpr(st, el)
		}
	}
}

func (sc *raceScanner) scanWrite(st *raceState, e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sc.access(st, e, true)
		sc.scanExpr(st, e.X)
	case *ast.IndexExpr:
		// Writing an element through a struct field (s.stats[k] = v)
		// mutates the field's referent: treated as a field write.
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			sc.access(st, sel, true)
			sc.scanExpr(st, sel.X)
		} else {
			sc.scanExpr(st, e.X)
		}
		sc.scanExpr(st, e.Index)
	case *ast.StarExpr:
		sc.scanExpr(st, e.X)
	}
}

// access records one struct-field access under the current state.
func (sc *raceScanner) access(st *raceState, sel *ast.SelectorExpr, write bool) {
	info := sc.pass.Pkg.Info
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	baseX := ast.Unparen(sel.X)
	id, ok := baseX.(*ast.Ident)
	if !ok {
		return
	}
	base, ok := sc.w.objectOf(id).(*types.Var)
	if !ok {
		return
	}
	owner := namedStructOf(base.Type())
	if owner == nil {
		return
	}
	// Guard-typed fields (mutexes, once, WaitGroup, atomics) are the
	// synchronization itself, not shared data.
	if lockBearing(v.Type()) || isAtomicGuard(v.Type()) {
		return
	}
	sc.record(st, sel.Pos(), base, owner, sel.Sel.Name, write, sc.inSpawn, token.NoPos, false)
}

func (sc *raceScanner) record(st *raceState, pos token.Pos, base types.Object, owner *types.TypeName, field string, write, inSpawn bool, spawnPos token.Pos, synth bool) {
	var guards []string
	for g := range st.held[base] {
		guards = append(guards, g)
	}
	sort.Strings(guards)
	_, published := st.published[base]
	guarded := len(guards) > 0 || st.settled[base] ||
		(!inSpawn && !published && sc.locals[base])
	a := fieldAccess{
		pos:      pos,
		base:     base,
		owner:    owner,
		field:    field,
		write:    write,
		guarded:  guarded,
		guards:   guards,
		inSpawn:  inSpawn,
		spawnPos: spawnPos,
		synth:    synth,
	}
	// Publication rule (R2): a field write after the base escaped to
	// another goroutine, outside any guard, is a race regardless of
	// whether a contract exists for the field.
	if write && !guarded && !inSpawn && published {
		sc.pubs = append(sc.pubs, Finding{
			Analyzer: "racecontract",
			Pos:      sc.pass.Position(pos),
			Message: fmt.Sprintf(
				"write to %s.%s after %s was published to another goroutine at %s; guard it or use sync/atomic",
				owner.Name(), field, base.Name(),
				sc.pass.Position(st.published[base]).String()),
		})
	}
	// Transfer rule: an unexported function's unguarded accesses to a
	// parameter's fields are checked at call sites via the summary, not
	// here — the caller knows the guard state, this body does not.
	if _, isParam := sc.params[base]; isParam && !inSpawn && !sc.decl.Name.IsExported() {
		a.transfer = true
	}
	sc.accs = append(sc.accs, a)
}

// fill exports the scanner's facts into the summary: unguarded
// parameter-field accesses (receiver-first, deduplicated and sorted)
// and settled results.
func (sc *raceScanner) fill(s *FuncSummary) {
	writes := make([]map[string]bool, sc.nparams)
	reads := make([]map[string]bool, sc.nparams)
	for _, a := range sc.accs {
		i, ok := sc.params[a.base]
		if !ok || a.guarded || a.inSpawn {
			continue
		}
		m := &reads
		if a.write {
			m = &writes
		}
		if (*m)[i] == nil {
			(*m)[i] = map[string]bool{}
		}
		(*m)[i][a.field] = true
	}
	toLists := func(ms []map[string]bool) [][]string {
		out := make([][]string, len(ms))
		any := false
		for i, m := range ms {
			if len(m) == 0 {
				continue
			}
			any = true
			for f := range m {
				out[i] = append(out[i], f)
			}
			sort.Strings(out[i])
		}
		if !any {
			return nil
		}
		return out
	}
	s.FieldWrites = toLists(writes)
	s.FieldReads = toLists(reads)
	if sc.retSeen {
		any := false
		for _, b := range sc.retSettled {
			any = any || b
		}
		if any {
			s.ResultSettled = sc.retSettled
		}
	}
}

// --- the analyzer -----------------------------------------------------

// typeField keys a contract: one field of one named struct type.
type typeField struct {
	owner *types.TypeName
	field string
}

// contractEvidence is where and how a contract was established.
type contractEvidence struct {
	guards string
	pos    token.Pos
}

func runRaceContract(pass *Pass) []Finding {
	if pass.Pkg.Info == nil {
		return nil
	}
	type declAccs struct {
		decl *ast.FuncDecl
		accs []fieldAccess
	}
	var (
		decls    []declAccs
		findings []Finding
	)
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, _ := obj.Type().(*types.Signature)
			if sig == nil {
				continue
			}
			sc := newRaceScanner(pass, fd, paramVarsOf(sig))
			sc.run()
			decls = append(decls, declAccs{decl: fd, accs: sc.accs})
			findings = append(findings, sc.pubs...)
		}
	}

	// Pass 1: infer contracts. Any write under a real same-base guard
	// (held mutex or once.Do context) is the programmer declaring the
	// field shared.
	contracts := map[typeField]contractEvidence{}
	for _, da := range decls {
		for _, a := range da.accs {
			if !a.write || len(a.guards) == 0 {
				continue
			}
			key := typeField{a.owner, a.field}
			if _, ok := contracts[key]; !ok {
				contracts[key] = contractEvidence{
					guards: strings.Join(a.guards, "/"),
					pos:    a.pos,
				}
			}
		}
	}

	// Pass 2: every non-exempt access to a contracted field is a
	// finding (R1), and a spawned goroutine's unguarded access that can
	// overlap an unguarded access to the same field in its spawning
	// function is one too (R2b) — both sides touch, neither holds
	// anything, and the spawner keeps running past the spawn.
	for _, da := range decls {
		for _, a := range da.accs {
			if a.guarded || a.transfer {
				continue
			}
			if ev, ok := contracts[typeField{a.owner, a.field}]; ok {
				kind := "read of"
				if a.write {
					kind = "write to"
				}
				findings = append(findings, Finding{
					Analyzer: "racecontract",
					Pos:      pass.Position(a.pos),
					Message: fmt.Sprintf(
						"unguarded %s %s.%s, which is guarded by %s at %s; take the guard, complete the once, or use sync/atomic",
						kind, a.owner.Name(), a.field, ev.guards,
						pass.Position(ev.pos).String()),
				})
				continue
			}
			if !a.inSpawn {
				continue
			}
			// R2b: pair a spawned access with a same-field unguarded
			// access after the spawn in the same declaration.
			for _, b := range da.accs {
				if b.inSpawn || b.guarded || b.base != a.base || b.field != a.field {
					continue
				}
				if !a.write && !b.write {
					continue
				}
				if a.spawnPos == token.NoPos || b.pos <= a.spawnPos {
					continue
				}
				findings = append(findings, Finding{
					Analyzer: "racecontract",
					Pos:      pass.Position(a.pos),
					Message: fmt.Sprintf(
						"%s.%s is accessed on the goroutine spawned at %s and again at %s with no guard on either side",
						a.owner.Name(), a.field,
						pass.Position(a.spawnPos).String(),
						pass.Position(b.pos).String()),
				})
				break
			}
		}
	}

	// Loop bodies are interpreted twice and call sites can synthesize
	// the same access repeatedly: deduplicate by position + message.
	seen := map[string]bool{}
	var out []Finding
	for _, f := range findings {
		key := f.Pos.String() + "\x00" + f.Message
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}
