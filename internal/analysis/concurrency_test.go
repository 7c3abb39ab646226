package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// --- detfloat ---------------------------------------------------------

func TestDetFloatFlagsReductions(t *testing.T) {
	src := `package bad

func Sum(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}

func Fma(a, b []float32) float32 {
	var s float32
	for i := range a {
		s = s + a[i]*b[i]
	}
	return s
}

func Elementwise(dst, a []float32) {
	for i := range dst {
		dst[i] += a[i]
	}
}

func Wide(xs []float32) float32 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return float32(s)
}

func LoopLocal(xs []float32) {
	for i := range xs {
		var t float32
		t += xs[i]
		_ = t
	}
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "detfloat", 6, 14)
	if !strings.Contains(got[1].Message, "FMA-shaped") {
		t.Errorf("multiply-accumulate should be called out as FMA-shaped: %s", got[1].Message)
	}
	if !strings.Contains(got[0].Message, "serial-equivalence") {
		t.Errorf("message should name the contract: %s", got[0].Message)
	}
}

// TestDetFloatExemptsCanonicalChain: dotRowGeneric in the tensor
// package IS the contract; the same loop under any other name is not.
func TestDetFloatExemptsCanonicalChain(t *testing.T) {
	src := `package tensor

func dotRowGeneric(row, x []float32) float32 {
	var s float32
	for i := range row {
		s += row[i] * x[i]
	}
	return s
}

func Sum(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstmfix/internal/tensor", "internal/tensor/kernel.go", src)
	wantLines(t, got, "detfloat", 14)
}

// TestDetFloatFlagsCallShapedFolds: s = f(..., s) is a serial reduction
// through a call — the shape of math.FMA wrappers — and is flagged like
// any other accumulation when it appears outside the sanctioned chains.
func TestDetFloatFlagsCallShapedFolds(t *testing.T) {
	src := `package bad

import "math"

func fold(a, b, acc float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(acc)))
}

func Dot(row, x []float32) float32 {
	var s float32
	for i := range row {
		s = fold(row[i], x[i], s)
	}
	return s
}

func Fresh(row, x []float32) []float32 {
	out := make([]float32, len(row))
	for i := range row {
		out[i] = fold(row[i], x[i], 0)
	}
	return out
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "detfloat", 12)
	if !strings.Contains(got[0].Message, "call-shaped") {
		t.Errorf("call fold should be called out as call-shaped: %s", got[0].Message)
	}
}

// TestDetFloatExemptsWideChain: dotRowWideGeneric is the second
// sanctioned chain (the wide FMA fold behind KernelChain); the same
// loop under any other name is still a violation.
func TestDetFloatExemptsWideChain(t *testing.T) {
	src := `package tensor

import "math"

func fma32(a, b, acc float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(acc)))
}

func dotRowWideGeneric(row, x []float32) float32 {
	var s float32
	for i := range row {
		s = fma32(row[i], x[i], s)
	}
	return s
}

func dotRowWider(row, x []float32) float32 {
	var s float32
	for i := range row {
		s = fma32(row[i], x[i], s)
	}
	return s
}
`
	got := runFixture(t, Lookup("detfloat"), "mobilstmfix/internal/tensor", "internal/tensor/kernel.go", src)
	wantLines(t, got, "detfloat", 20)
}

// --- goroutinejoin ----------------------------------------------------

func TestGoroutineJoinFlagsLeaks(t *testing.T) {
	src := `package bad

import "sync"

func Leak() {
	go func() {
		_ = 1
	}()
}

func AddAfter() {
	var wg sync.WaitGroup
	go func() { wg.Done() }()
	wg.Add(1)
	wg.Wait()
}
`
	got := runFixture(t, Lookup("goroutinejoin"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "goroutinejoin", 6, 13)
	if !strings.Contains(got[0].Message, "join path") {
		t.Errorf("message should explain the obligation: %s", got[0].Message)
	}
}

// TestGoroutineJoinCleanPatterns covers every join shape the repo uses:
// the Add/Done pair (deferred, direct, and handed to a helper), the
// result-channel handoff, close-as-completion, a channel-bounded body, and a spawned
// method whose receiver field bounds its lifetime (the serve
// worker-loop shape).
func TestGoroutineJoinCleanPatterns(t *testing.T) {
	src := `package good

import "sync"

func Join() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

func worker(wg *sync.WaitGroup) {
	defer wg.Done()
}

func Named() {
	var wg sync.WaitGroup
	wg.Add(2)
	go worker(&wg)
	go func() { worker(&wg) }()
	wg.Wait()
}

func Handoff() int {
	ch := make(chan int)
	go func() { ch <- 1 }()
	return <-ch
}

func CloseJoin() {
	ch := make(chan int)
	go func() {
		close(ch)
	}()
	for range ch {
	}
}

func Bound(done chan struct{}) {
	go func() {
		<-done
	}()
}

type Srv struct {
	dispatch chan int
}

func (s *Srv) loop() {
	for range s.dispatch {
	}
}

func (s *Srv) Start() {
	go s.loop()
}
`
	got := runFixture(t, Lookup("goroutinejoin"), "mobilstm/internal/good", "internal/good/good.go", src)
	if len(got) != 0 {
		t.Fatalf("clean fixture produced findings:\n%v", got)
	}
}

func TestLockLintSanctionsDaemonRegistry(t *testing.T) {
	// The serve.Daemons pattern: the launching function registers the
	// goroutine in a WaitGroup at creation time; the Wait lives with the
	// owner in another function. No finding, no lint:ignore needed.
	src := `package ok

import "sync"

type daemons struct {
	wg sync.WaitGroup
}

func (d *daemons) launch(fn func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		fn()
	}()
}

func (d *daemons) collect() {
	d.wg.Wait()
}
`
	if got := runFixture(t, Lookup("goroutinejoin"), "mobilstm/internal/ok", "internal/ok/ok.go", src); len(got) != 0 {
		t.Fatalf("WaitGroup-registered daemon launch must pass: %v", got)
	}
}

func TestLockLintStillFlagsUnregisteredDaemon(t *testing.T) {
	// Add on something that is not a sync.WaitGroup does not register
	// the launch: the goroutine still has no join path.
	src := `package bad

type counter struct{ n int }

func (c *counter) Add(k int) { c.n += k }

func fire(c *counter) {
	c.Add(1)
	go func() {}()
}
`
	got := runFixture(t, Lookup("goroutinejoin"), "mobilstm/internal/bad", "internal/bad/bad.go", src)
	wantLines(t, got, "goroutinejoin", 9)
}

// TestSummaryConcurrencyFacts checks the per-function facts
// goroutinejoin consumes: Spawns, SpawnsParam, DonesParam and CtxWaits.
func TestSummaryConcurrencyFacts(t *testing.T) {
	src := `package facts

import "sync"

func runAsync(f func()) {
	go f()
}

func done(wg *sync.WaitGroup) {
	defer wg.Done()
}

func drain(ch chan int) {
	for range ch {
	}
}
`
	pkg := parseFixture(t, "mobilstm/internal/facts", "internal/facts/facts.go", src)
	pass := &Pass{Pkg: pkg}
	sum := func(name string) *FuncSummary {
		obj, _ := pkg.Types.Scope().Lookup(name).(*types.Func)
		s := pass.program().summaryFor(obj)
		if s == nil {
			t.Fatalf("no summary for %s", name)
		}
		return s
	}
	if s := sum("runAsync"); !s.Spawns || len(s.SpawnsParam) != 1 || !s.SpawnsParam[0] {
		t.Errorf("runAsync should spawn its parameter: %+v", s)
	}
	if s := sum("done"); len(s.DonesParam) != 1 || !s.DonesParam[0] {
		t.Errorf("done should Done its WaitGroup parameter: %+v", s)
	}
	if s := sum("drain"); len(s.CtxWaits) != 1 || !s.CtxWaits[0] {
		t.Errorf("drain should wait on its channel parameter: %+v", s)
	}
}
