package analysis

import "testing"

// TestArenaEscapeSeededViolations runs the analyzer over a scratch
// fixture that mirrors the recurrent forwardScratch arena. Expected
// findings, in order:
//
//	line 19 — Run stores an arena-backed view into a receiver field
//	line 27 — Leak (exported) returns an arena-backed view directly
//	line 34 — LeakVia returns one obtained through the unexported
//	          view helper (transitive via its summary)
//	line 43 — Stash parks an arena-backed view in a package variable
//
// view itself is silent (unexported helpers may hand arena views to
// in-package callers; the fact rides its summary), fill is silent
// because storing arena values into the arena itself is the intended
// growth pattern, and Note is silent because a literal of scalars read
// out of the arena holds copies, not views.
func TestArenaEscapeSeededViolations(t *testing.T) {
	src := `package fix

import "mobilstm/internal/tensor"

type layerScratch struct {
	buf []float32
	vs  []tensor.Vector
}

type net struct {
	keep tensor.Vector
}

var global tensor.Vector

func (n *net) Run(h int) tensor.Vector {
	sc := &layerScratch{buf: make([]float32, 4*h)}
	v := tensor.Vector(sc.buf[:h])
	n.keep = v
	out := tensor.NewVector(h)
	copy(out, v)
	return out
}

func Leak(h int) tensor.Vector {
	sc := &layerScratch{buf: make([]float32, h)}
	return tensor.Vector(sc.buf)
}

func view(sc *layerScratch, h int) tensor.Vector { return tensor.Vector(sc.buf[:h]) }

func LeakVia(h int) tensor.Vector {
	sc := &layerScratch{buf: make([]float32, h)}
	return view(sc, h)
}

func fill(sc *layerScratch, h int) {
	sc.vs[0] = tensor.Vector(sc.buf[:h])
}

func Stash(h int) {
	sc := &layerScratch{buf: make([]float32, h)}
	global = tensor.Vector(sc.buf)
}

type record struct{ firsts []float32 }

func (r *record) Note(sc *layerScratch) { r.firsts = []float32{sc.buf[0]} }
`
	got := runFixtureWith(t, Lookup("arenaescape"), "mobilstm/internal/fix", "internal/fix/fix.go", src)
	wantLines(t, got, "arenaescape", 19, 27, 34, 43)
}
