package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mobilstm/internal/rng"
)

// The span bodies' contract: every output a span body writes is
// bitwise the row body's dot of its row (or both NaN), it writes
// nothing else, and the kernels built on the bodies (span, span4,
// spanKept) compute every row of a window that may start and end inside
// a segment, and the block body every row of a range or a list for four,
// or fewer, inputs. The assembly bodies gather rows by index with no bounds
// checks of their own, so every destination sits between canaries that
// must survive the call.

// spanBinding is one binding the span contracts run under.
type spanBinding struct {
	name string
	k    Kernels
}

// spanKinds are the value laws of the span corpus: Gaussian rows,
// adversarial magnitudes (where any reassociation shows as a bit
// difference), subnormal rows, ±Inf and NaN lanes, and rows and inputs
// repeated at several addresses.
var spanKinds = []string{"normal", "wild", "subnormal", "non-finite", "repeated"}

// spanCorpus draws a rows × n weight block of the given kind and four
// inputs of length n for it.
func spanCorpus(r *rng.RNG, kind string, rows, n int) (w []float32, xs [4][]float32) {
	w = make([]float32, rows*n)
	for b := range xs {
		xs[b] = make([]float32, n)
	}
	norm := func(v []float32) {
		for i := range v {
			v[i] = float32(r.Norm())
		}
	}
	switch kind {
	case "wild":
		for i := range w {
			w[i] = float32(r.Norm() * r.Float64() * 1e6)
		}
		for _, x := range xs {
			for i := range x {
				x[i] = float32(r.Norm() / (1 + r.Float64()*1e5))
			}
		}
		return w, xs
	case "subnormal":
		// Every product and partial sum lives near the bottom of the
		// range, where rounding is gradual.
		for i := range w {
			w[i] = math.Float32frombits(uint32(r.Uint64()) & 0x807fffff)
		}
	default:
		norm(w)
	}
	for _, x := range xs {
		norm(x)
	}
	switch kind {
	case "non-finite":
		// One non-finite lane in every third row — +Inf, -Inf and NaN in
		// turn — both infinities in row 0 (Inf - Inf = NaN), and a -Inf
		// lane in input 3.
		if n > 0 {
			inf := float32(math.Inf(1))
			lanes := [3]float32{inf, -inf, float32(math.NaN())}
			for i := 0; i < rows; i += 3 {
				w[i*n+r.Intn(n)] = lanes[i/3%3]
			}
			if rows > 0 {
				w[0], w[n-1] = inf, -inf
			}
			xs[3][r.Intn(n)] = -inf
		}
	case "repeated":
		// The rows alternate between two, and input 1 is passed three
		// times.
		for i := 2; i < rows; i++ {
			copy(w[i*n:(i+1)*n], w[(i%2)*n:(i%2+1)*n])
		}
		xs[2], xs[3] = xs[1], xs[1]
	}
	return w, xs
}

// spanRef is the reference: want[b][i] is dotRowGeneric of row i of w
// (rows rows of len(xs[0]) floats) and input b.
func spanRef(w []float32, xs [4][]float32, rows int) [4][]float32 {
	var want [4][]float32
	n := len(xs[0])
	for b, x := range xs {
		want[b] = make([]float32, rows)
		for i := range want[b] {
			want[b][i] = dotRowGeneric(w[i*n:i*n+n], x)
		}
	}
	return want
}

// canary fills every destination slot a body must not write, and the
// slot on either side of it.
var canary = math.Float32frombits(0x7fc0dead)

// canaried returns a destination of rows canaries between two more, and
// the whole buffer.
func canaried(rows int) (dst, buf []float32) {
	buf = slices.Repeat([]float32{canary}, rows+2)
	return buf[1 : rows+1], buf
}

// checkCanaried fails unless buf (a canaried destination) holds want(i)
// — bitwise, or both NaN — in each slot i that written reports, and an
// untouched canary everywhere else, its two guard slots included.
func checkCanaried(t *testing.T, name string, buf []float32, written func(i int) bool, want func(i int) float32) {
	t.Helper()
	for j, v := range buf {
		i := j - 1
		if i >= 0 && i < len(buf)-2 && written(i) {
			if w := want(i); !sameBits(v, w) {
				t.Fatalf("%s: row %d = %v (%#08x), reference %v (%#08x)", name, i, v, math.Float32bits(v), w, math.Float32bits(w))
			}
		} else if math.Float32bits(v) != math.Float32bits(canary) {
			t.Fatalf("%s: slot %d of %d (row %d) overwritten with %v", name, j, len(buf), i, v)
		}
	}
}

// spanShapes visits every span shape of the corpus: row counts 0–40
// (every count of whole groups and every tail) plus the served 192, 576
// and 768, against row lengths 0–40 (every 16-float block count and
// serial tail, and rows shorter than one block) plus 192 and 650. Each
// shape draws one value kind, in turn.
func spanShapes(fn func(rows, n int, kind string)) {
	sizes := func(extra ...int) []int {
		s := make([]int, 41)
		for i := range s {
			s[i] = i
		}
		return append(s, extra...)
	}
	c := 0
	for _, rows := range sizes(192, 576, 768) {
		for _, n := range sizes(192, 650) {
			fn(rows, n, spanKinds[c%len(spanKinds)])
			c++
		}
	}
}

// keptKinds draws the kept-row lists of the corpus over rows rows:
// random, empty, every row, and a single row. The empty list is not nil:
// a span body reads a nil list as the row range.
func keptKinds(r *rng.RNG, rows int) map[string][]int {
	all := make([]int, rows)
	for i := range all {
		all[i] = i
	}
	lists := map[string][]int{"random": maskOf(randMask(r, rows, 0.5)).Kept, "empty": {}, "full": all}
	if rows > 0 {
		lists["single"] = []int{r.Intn(rows)}
	}
	return lists
}

// TestDotQuadMatchesGeneric pins the four-row span bodies of every
// binding (spanBindings: the pure-Go spans, and the AVX bodies with the
// block probe as detected and cleared) to dotRowGeneric over the span
// corpus: the span body over every whole group of a row range, and over
// random, empty, full and single-row lists, at offset 0 and at a
// negative offset as a shard window inside a segment has; and the
// gather body over four random rows, repeats allowed. Outputs must
// be bitwise equal, or both NaN, and every other slot untouched.
func TestDotQuadMatchesGeneric(t *testing.T) {
	r := rng.New(0x63)
	bindings := spanBindings()
	spanShapes(func(rows, n int, kind string) {
		w, xs := spanCorpus(r, kind, rows, n)
		want := spanRef(w, xs, rows)[0]
		x := xs[0]
		ref := func(i int) float32 { return want[i] }
		lists := keptKinds(r, rows)
		var at [4]int
		if rows > 0 {
			for j := range at {
				at[j] = r.Intn(rows)
			}
		}
		for _, b := range bindings {
			name := fmt.Sprintf("%s %d×%d %s", b.name, rows, n, kind)
			dst, buf := canaried(rows)
			b.k.quad(b.k, dst, w, x, nil, 0)
			checkCanaried(t, name+" quad", buf, func(i int) bool { return i < rows&^3 }, ref)
			for lname, kept := range lists {
				groups := kept[:len(kept)&^3]
				in := func(i int) bool { _, ok := slices.BinarySearch(groups, i); return ok }
				dst, buf := canaried(rows)
				b.k.quad(b.k, dst, w, x, kept, 0)
				checkCanaried(t, name+" kept "+lname, buf, in, ref)
				// The same rows as a shard window's list: entries past
				// the window's start, a negative offset back to them.
				s := rows / 3
				dst, buf = canaried(rows)
				b.k.quad(b.k, dst, w, x, shifted(kept, s), -s)
				checkCanaried(t, name+" kept "+lname+" at an offset", buf, in, ref)
			}
			if rows > 0 {
				dst, buf := canaried(rows)
				b.k.gather(b.k, dst, w, x, at)
				checkCanaried(t, fmt.Sprintf("%s gather %v", name, at), buf, func(i int) bool { return slices.Contains(at[:], i) }, ref)
			}
		}
	})
}

// shifted is kept as a shard window's list: every entry s rows past the
// window's start, which an offset of -s takes back. A nil list (the row
// range) stays nil.
func shifted(kept []int, s int) []int {
	if kept == nil {
		return nil
	}
	out := make([]int, len(kept))
	for j, k := range kept {
		out[j] = k + s
	}
	return out
}

// presence is the input patterns of the block body: all four inputs
// present, and groups of three, two and one with the absent slots marked
// nil in different places.
var presence = [][4]bool{{true, true, true, true}, {true, true, true, false}, {false, true, false, true}, {false, false, true, false}}

// checkBlock runs k's block span body over kept (offset off; a nil list
// is the range of rows rows, which ignores off) with the inputs present
// marks, each destination between canaries, and holds every output of a
// present input at a row of the whole groups to want, every other slot
// untouched.
func checkBlock(t *testing.T, name string, k Kernels, w []float32, xs [4][]float32, rows int, kept []int, off int, present [4]bool, want func(b, i int) float32) {
	t.Helper()
	var dsts, bufs [4][]float32
	for b, p := range present {
		if p {
			dsts[b], bufs[b] = canaried(rows)
		}
	}
	in := func(i int) bool { return i < rows&^3 }
	if kept != nil {
		groups := kept[:len(kept)&^3]
		in = func(i int) bool { _, ok := slices.BinarySearch(groups, i-off); return ok }
	}
	k.block(k, dsts, w, xs, kept, off)
	for b, buf := range bufs {
		if buf != nil {
			checkCanaried(t, fmt.Sprintf("%s input %d of %v", name, b, present), buf, in,
				func(i int) float32 { return want(b, i) })
		}
	}
}

// blockCorpus is the block span body tests' one corpus loop: the block
// body of every binding (spanBindings: the pure-Go block span over each
// binding's four-row span, and the AVX-512 body where the probe binds
// it) against dotRowGeneric, pair by pair, over the span corpus with
// four inputs. Each shape runs every list lists draws for it — a nil one
// is the row range — with four inputs present at offset 0, and as a
// shard window's list at a negative offset with one to four present
// (presence, in turn; the range must ignore the offset). Outputs must be
// bitwise equal, or both NaN, and every other slot of the destinations
// untouched.
func blockCorpus(t *testing.T, seed uint64, lists func(r *rng.RNG, rows int) map[string][]int) {
	r := rng.New(seed)
	bindings := spanBindings()
	c := 0
	spanShapes(func(rows, n int, kind string) {
		w, xs := spanCorpus(r, kind, rows, n)
		want := spanRef(w, xs, rows)
		ref := func(b, i int) float32 { return want[b][i] }
		present := presence[c%len(presence)]
		c++
		for lname, kept := range lists(r, rows) {
			s := rows / 3
			for _, bd := range bindings {
				name := fmt.Sprintf("%s %d×%d %s %s", bd.name, rows, n, kind, lname)
				checkBlock(t, name, bd.k, w, xs, rows, kept, 0, [4]bool{true, true, true, true}, ref)
				checkBlock(t, name+" at an offset", bd.k, w, xs, rows, shifted(kept, s), -s, present, ref)
			}
		}
	})
}

// TestDotBlockMatchesGeneric pins the block span body of every binding
// over a row range (blockCorpus).
func TestDotBlockMatchesGeneric(t *testing.T) {
	blockCorpus(t, 0x64, func(*rng.RNG, int) map[string][]int { return map[string][]int{"range": nil} })
}

// TestDotKeptBlockMatchesGeneric pins the block span body of every
// binding over random, empty, full and single-row kept lists
// (blockCorpus).
func TestDotKeptBlockMatchesGeneric(t *testing.T) {
	blockCorpus(t, 0x66, keptKinds)
}

// checkWindow runs span, span4 and spanKept of k over the window
// [lo, hi) of m's rows, and the block body over the window's rows as a
// range, or over its kept rows as a list where list is set, each
// destination between canaries, and holds every output to dotRowGeneric
// of its row (or fill where mk skips it).
func checkWindow(t *testing.T, name string, k Kernels, m *Matrix, xs [4][]float32, lo, hi int, mk RowMask, fill float32, list bool) {
	t.Helper()
	want := spanRef(m.Data, xs, m.Rows)
	rows := hi - lo
	ref := func(b int) func(i int) float32 { return func(i int) float32 { return want[b][lo+i] } }
	every := func(int) bool { return true }
	name = fmt.Sprintf("%s %dx%d [%d, %d)", name, m.Rows, m.Cols, lo, hi)

	dst, buf := canaried(rows)
	k.span(dst, m, xs[0], lo)
	checkCanaried(t, name+" span", buf, every, ref(0))

	var dsts, bufs [4][]float32
	for b := range dsts {
		dsts[b], bufs[b] = canaried(rows)
	}
	k.span4(dsts, m, xs, lo)
	for b, buf := range bufs {
		checkCanaried(t, fmt.Sprintf("%s span4 input %d", name, b), buf, every, ref(b))
	}

	dst, buf = canaried(rows)
	k.spanKept(dst, m, xs[0], lo, mk, fill)
	checkCanaried(t, name+" spanKept", buf, every, func(i int) float32 {
		if _, ok := slices.BinarySearch(mk.Kept, (lo+i)%mk.Seg); !ok {
			return fill
		}
		return want[0][lo+i]
	})

	// The block body over the window, with one to four inputs present.
	// As a list, mk tiled over [lo, hi), as the union list of a group's
	// second-stage W·x tiles the stage's blocks; its entries are rows of
	// m, and the offset -lo numbers them from the window's start.
	var kept []int
	if list {
		kept = []int{}
		for i := lo; i < hi; i++ {
			if _, ok := slices.BinarySearch(mk.Kept, i%mk.Seg); ok {
				kept = append(kept, i)
			}
		}
	}
	n := m.Cols
	for _, present := range presence {
		checkBlock(t, name+" block", k, m.Data[lo*n:hi*n], xs, rows, kept, -lo, present,
			func(b, i int) float32 { return want[b][lo+i] })
	}
}

// TestSpanWindowsMatchesGeneric holds the span kernels of every binding
// to dotRowGeneric over windows of a three-segment united matrix that
// start and end inside segments, as fork shards do — the whole matrix,
// one row in from either end, across a segment edge, and random
// windows — under random, empty, nil, full and single-row kept lists,
// at segment lengths of every class mod 4 and row lengths around the
// 16-float block; the block body takes every other window as a range,
// the rest as a list.
func TestSpanWindowsMatchesGeneric(t *testing.T) {
	const fill = -4.5
	r := rng.New(0x65)
	bindings := spanBindings()
	c := 0
	for _, seg := range []int{1, 3, 10, 17, 64, 192} {
		for _, n := range []int{1, 15, 16, 17, 40, 192} {
			kind := spanKinds[c%len(spanKinds)]
			c++
			rows := 3 * seg
			w, xs := spanCorpus(r, kind, rows, n)
			m := &Matrix{Rows: rows, Cols: n, Data: w}
			windows := [][2]int{{0, rows}, {1, rows - 1}, {seg - 1, 2*seg + 1}}
			for range 4 {
				lo := r.Intn(rows + 1)
				windows = append(windows, [2]int{lo, lo + r.Intn(rows-lo+1)})
			}
			lists := keptKinds(r, seg)
			lists["nil"] = nil // keeps no row, like the empty list
			for lname, kept := range lists {
				mk := RowMask{Seg: seg, Kept: kept}
				for wi, win := range windows {
					lo, hi := max(win[0], 0), min(win[1], rows)
					if lo > hi {
						continue
					}
					for _, b := range bindings {
						checkWindow(t, fmt.Sprintf("%s %s %s", b.name, kind, lname), b.k, m, xs, lo, hi, mk, fill, wi%2 == 1)
					}
				}
			}
		}
	}
}

// FuzzSpanBodies drives the span kernels of every binding — the block
// body among them, over a range or a list as the fuzzer draws — over
// random shapes, value kinds, kept lists and shard windows, each
// destination between canaries, against dotRowGeneric (checkWindow).
func FuzzSpanBodies(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(3), uint16(192), uint16(5), uint16(20), uint8(128), true)
	f.Add(uint64(2), uint8(1), uint8(4), uint16(17), uint16(0), uint16(4), uint8(0), false)
	f.Add(uint64(3), uint8(63), uint8(2), uint16(650), uint16(40), uint16(100), uint8(255), true)
	f.Add(uint64(4), uint8(48), uint8(4), uint16(40), uint16(7), uint16(150), uint8(90), false)
	bindings := spanBindings()
	f.Fuzz(func(t *testing.T, seed uint64, segB, gatesB uint8, nB, loB, lenB uint16, density uint8, list bool) {
		r := rng.New(seed)
		seg, gates, n := 1+int(segB)%96, 1+int(gatesB)%4, int(nB)%701
		rows := seg * gates
		lo := int(loB) % (rows + 1)
		hi := lo + int(lenB)%(rows-lo+1)
		kind := spanKinds[seed%uint64(len(spanKinds))]
		w, xs := spanCorpus(r, kind, rows, n)
		m := &Matrix{Rows: rows, Cols: n, Data: w}
		mk := maskOf(randMask(r, seg, float64(density)/255))
		for _, b := range bindings {
			checkWindow(t, b.name+" "+kind, b.k, m, xs, lo, hi, mk, -1, list)
		}
	})
}
