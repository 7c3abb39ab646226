package tensor

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mobilstm/internal/rng"
)

// The equivalence contract of the united-gate kernels: packed and
// parallel results must be BITWISE identical to the serial per-gate
// calls — not merely close. The lstm/gru hot paths route every shape
// through these kernels, so one flipped bit here would silently change
// every accuracy table downstream.
//
// Each contract is one body over a Kernels binding, run for every
// chain against the reference row body that defines the chain. The
// chains are never compared with each other: they differ by design
// (TestDotRowWideFusesProducts).

// chainRefs pairs every chain with the row body its kernels are held
// to, bitwise.
var chainRefs = []struct {
	chain KernelChain
	ref   rowBodyFn
}{
	{ChainGeneric, dotRowGeneric},
	{ChainSSE2, dotRowGeneric},
	{ChainAVX2, dotRowWideGeneric},
}

// forEachChain runs one contract body per chain, as a subtest named
// after the chain.
func forEachChain(t *testing.T, body func(t *testing.T, k Kernels, ref rowBodyFn)) {
	for _, c := range chainRefs {
		t.Run(c.chain.String(), func(t *testing.T) { body(t, KernelsFor(c.chain), c.ref) })
	}
}

// mustPanic runs each named call and fails the ones that return.
func mustPanic(t *testing.T, calls map[string]func()) {
	t.Helper()
	for name, fn := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// atGOMAXPROCS runs fn at each of the given GOMAXPROCS settings,
// restoring the original value afterwards. Oversubscription (more Ps
// than cores) is legal, so the parallel shards genuinely interleave
// even on a single-core runner.
func atGOMAXPROCS(t *testing.T, procs []int, fn func(t *testing.T)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fn(t)
	}
}

// packedShapes are deliberately awkward: odd segment sizes, columns
// around the 4-lane unroll boundary, single-row segments, segments and
// matrices of every row count mod 4 (the four-row groups), and united
// matrices taller than PackedGemmRows' weight tile (16 rows at 256
// columns, 4 at 650) that end in a partial tile.
var packedShapes = []struct{ seg, cols, gates int }{
	{1, 1, 2},
	{3, 5, 4},
	{7, 13, 3},
	{17, 16, 4},
	{33, 129, 3},
	{64, 96, 4},
	{6, 17, 4},
	{13, 256, 3},
	{5, 650, 2},
}

// forkRows × forkCols floats, and forkShape's united matrix, overflow
// parallelMinBytes, so the batch kernels over them fork at GOMAXPROCS
// above one (mustFork checks that they do); the packedShapes all stay
// serial.
const forkRows, forkCols = 1031, 515

var forkShape = struct{ seg, cols, gates int }{257, forkCols, 4}

// mustFork fails the test unless a kernel over rows destination rows of
// m forks at the current GOMAXPROCS (when above one): the parallel
// contracts must cover the sharded path, not only the serial one.
func mustFork(t *testing.T, rows int, m *Matrix) {
	t.Helper()
	if runtime.GOMAXPROCS(0) > 1 && shardCount(rows, m.SizeBytes()) < 2 {
		t.Fatalf("%d rows over a %dx%d matrix do not fork", rows, m.Rows, m.Cols)
	}
}

// randGates draws one matrix per gate of the shape, and their united
// packing.
func randGates(r *rng.RNG, seg, cols, gates int) ([]*Matrix, *Matrix) {
	ms := make([]*Matrix, gates)
	for g := range ms {
		ms[g] = randMatrix(r, seg, cols)
	}
	return ms, Pack(ms...)
}

// randMask draws a skip mask of n rows, each skipped with probability p.
func randMask(r *rng.RNG, n int, p float64) []bool {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = r.Bernoulli(p)
	}
	return mask
}

// maskOf compacts a []bool mask (skip[r] marks row r skipped) into a
// RowMask over len(skip) rows.
func maskOf(skip []bool) RowMask {
	kept := make([]int, 0, len(skip))
	for r, s := range skip {
		if !s {
			kept = append(kept, r)
		}
	}
	return RowMask{Seg: len(skip), Kept: kept}
}

// masksOf compacts one []bool skip mask per member (nil: no mask) into
// the kernels' RowMask set; a nil set stays nil.
func masksOf(skips [][]bool) []RowMask {
	if skips == nil {
		return nil
	}
	masks := make([]RowMask, len(skips))
	for b, sk := range skips {
		if sk != nil {
			masks[b] = maskOf(sk)
		}
	}
	return masks
}

// namedMask is one skip mask of a contract corpus.
type namedMask struct {
	name string
	skip []bool
}

// maskKinds draws the DRS masks every masked contract runs over, for n
// rows: skip none, skip all, alternating, and random.
func maskKinds(r *rng.RNG, n int) []namedMask {
	alt := make([]bool, n)
	for i := range alt {
		alt[i] = i%2 == 1
	}
	return []namedMask{
		{"none", make([]bool, n)},
		{"all", slices.Repeat([]bool{true}, n)},
		{"alternating", alt},
		{"random", randMask(r, n, 0.4)},
	}
}

// gemvEqualsRowBody: Gemv is one ref dot per row, and so is a nil-skip
// PackedGemvRows with one destination.
func gemvEqualsRowBody(t *testing.T, k Kernels, ref rowBodyFn) {
	r := rng.New(0x47)
	for _, sh := range packedShapes {
		m := randMatrix(r, sh.seg*sh.gates, sh.cols)
		x := randVector(r, sh.cols)
		a, b := NewVector(m.Rows), NewVector(m.Rows)
		k.Gemv(a, m, x)
		k.PackedGemvRows([]Vector{b}, m, x, nil, -1)
		for i := range a {
			if want := ref(m.Row(i), x); a[i] != want || b[i] != want {
				t.Fatalf("shape %v row %d: Gemv %v, nil-skip PackedGemvRows %v, row body %v", sh, i, a[i], b[i], want)
			}
		}
	}
}

// packedGemvEqualsPerGate: the united product scattered per gate is one
// serial Gemv per gate block.
func packedGemvEqualsPerGate(t *testing.T, k Kernels, _ rowBodyFn) {
	r := rng.New(0x41)
	for _, sh := range packedShapes {
		gates, united := randGates(r, sh.seg, sh.cols, sh.gates)
		x := randVector(r, sh.cols)
		dsts := make([]Vector, sh.gates)
		want := make([]Vector, sh.gates)
		for g := range dsts {
			dsts[g] = NewVector(sh.seg)
			want[g] = NewVector(sh.seg)
			k.Gemv(want[g], gates[g], x)
		}
		k.PackedGemv(dsts, united, x)
		for g := range dsts {
			for i := range dsts[g] {
				if dsts[g][i] != want[g][i] {
					t.Fatalf("shape %v gate %d row %d: packed %v != serial %v",
						sh, g, i, dsts[g][i], want[g][i])
				}
			}
		}
	}
}

// packedGemvRowsEqualsRowBody: a segment-length DRS mask over the united
// matrix leaves fill on the masked rows of every segment and one ref dot
// on the others — over one destination per gate, and over one
// destination spanning the whole matrix (a masked Gemv).
func packedGemvRowsEqualsRowBody(t *testing.T, k Kernels, ref rowBodyFn) {
	r := rng.New(0x42)
	for _, sh := range packedShapes {
		m := randMatrix(r, sh.seg*sh.gates, sh.cols)
		x := randVector(r, sh.cols)
		for _, n := range []int{sh.gates, 1} {
			seg := m.Rows / n
			for _, mk := range maskKinds(r, seg) {
				const fill = -7.5
				out := NewVector(m.Rows)
				dsts := make([]Vector, n)
				for g := range dsts {
					dsts[g] = out[g*seg : (g+1)*seg]
				}
				k.PackedGemvRows(dsts, m, x, mk.skip, fill)
				for i := range out {
					want := ref(m.Row(i), x)
					if mk.skip[i%seg] {
						want = fill
					}
					if out[i] != want {
						t.Fatalf("shape %v, %d destinations, mask %s row %d: %v != %v", sh, n, mk.name, i, out[i], want)
					}
				}
			}
		}
	}
}

// packedGemmEqualsGemv: the whole-layer W·x stage is one serial Gemv
// per input however the fork-join shards the inputs.
func packedGemmEqualsGemv(t *testing.T, k Kernels, _ rowBodyFn) {
	r := rng.New(0x44)
	// Big enough to cross the parallel gate, odd enough to stress the
	// shard remainders.
	const rows, cols, inputs = forkRows, forkCols, 17
	m := randMatrix(r, rows, cols)
	xs := make([]Vector, inputs)
	want := make([]Vector, inputs)
	for t2 := range xs {
		xs[t2] = randVector(r, cols)
		want[t2] = NewVector(rows)
		k.Gemv(want[t2], m, xs[t2])
	}
	atGOMAXPROCS(t, []int{1, 2, 8}, func(t *testing.T) {
		mustFork(t, inputs, m)
		dst := NewMatrix(inputs, rows)
		k.PackedGemm(dst, m, xs)
		for t2 := range xs {
			row := dst.Row(t2)
			for i := range row {
				if row[i] != want[t2][i] {
					t.Fatalf("GOMAXPROCS %d input %d row %d: %v != %v",
						runtime.GOMAXPROCS(0), t2, i, row[i], want[t2][i])
				}
			}
		}
	})
}

// packedGemmRowsEqualsPerMember pins the batch kernel's contract: row b
// of the batched product must be bitwise identical to an independent
// serial PackedGemvRows for member b — same dot chains, same fill on
// masked rows — however the row-outer fork-join shards the united
// weight rows.
func packedGemmRowsEqualsPerMember(t *testing.T, k Kernels, _ rowBodyFn) {
	r := rng.New(0x48)
	for _, sh := range append(slices.Clip(packedShapes), forkShape) {
		rows := sh.seg * sh.gates
		m := randMatrix(r, rows, sh.cols)
		// Member 0 has no mask, members 1..4 one of each mask kind.
		kinds := maskKinds(r, sh.seg)
		members := 1 + len(kinds)
		xs := make([]Vector, members)
		skips := make([][]bool, members)
		for b := range xs {
			xs[b] = randVector(r, sh.cols)
			if b > 0 {
				skips[b] = kinds[b-1].skip
			}
		}
		const fill = -3.25

		want := make([]Vector, members)
		for b := range want {
			want[b] = NewVector(rows)
			segs := make([]Vector, sh.gates)
			for g := range segs {
				segs[g] = want[b][g*sh.seg : (g+1)*sh.seg]
			}
			k.PackedGemvRows(segs, m, xs[b], skips[b], fill)
		}
		atGOMAXPROCS(t, []int{1, 2, 8}, func(t *testing.T) {
			if sh == forkShape {
				mustFork(t, rows, m)
			}
			dst := NewMatrix(members, rows)
			k.PackedGemmRows(dst, m, xs, masksOf(skips), fill)
			for b := range xs {
				row := dst.Row(b)
				for i := range row {
					if row[i] != want[b][i] {
						t.Fatalf("GOMAXPROCS %d shape %v member %d row %d: batched %v != serial %v",
							runtime.GOMAXPROCS(0), sh, b, i, row[i], want[b][i])
					}
				}
			}
		})
	}
}

func TestGemvBitwiseEqualsRowBody(t *testing.T) { forEachChain(t, gemvEqualsRowBody) }

// TestBlockedGemmBitwiseEqualsRowBody pins the four-row × four-input
// traversal of PackedGemm and PackedGemmRows through a pure-Go block
// span body (sixteen dotRowGeneric calls per group) bound in a
// test-only Kernels value, so its edges are pinned on runners without
// AVX-512 too: input counts of every class mod 4, row counts of every
// class mod 4 (ending PackedGemmRows' last weight tile), unmasked and
// masked members interleaved in one call, and the fork-join shard edges
// of the h = 650 united matrix (2600 rows in shards of 1300 or 325, 17
// inputs in shards of 9 and 8). Every output must be its pair's
// dotRowGeneric, or fill where masked.
func TestBlockedGemmBitwiseEqualsRowBody(t *testing.T) {
	var blocks atomic.Int64
	k := goKernels(dotRowGeneric)
	k.block = func(_ Kernels, dsts [4][]float32, w []float32, xs [4][]float32, kept []int, off int) {
		blocks.Add(1)
		blockRows(goKernels(dotRowGeneric), dsts, w, xs, kept, off)
	}
	const fill = -2.5
	r := rng.New(0x4b)
	// check runs both kernels over m and xs — PackedGemmRows with a
	// random DRS mask on every member b where masked(b) — and compares
	// every output with its pair's reference.
	check := func(t *testing.T, m *Matrix, xs []Vector, masked func(b int) bool) {
		t.Helper()
		skips := make([][]bool, len(xs))
		for b := range skips {
			if masked(b) {
				skips[b] = randMask(r, m.Rows, 0.4)
			}
		}
		want := NewMatrix(len(xs), m.Rows)
		for b, x := range xs {
			for i := range m.Rows {
				want.Set(b, i, dotRowGeneric(m.Row(i), x))
			}
		}
		gemm, rows := NewMatrix(len(xs), m.Rows), NewMatrix(len(xs), m.Rows)
		k.PackedGemm(gemm, m, xs)
		k.PackedGemmRows(rows, m, xs, masksOf(skips), fill)
		for b := range xs {
			for i := range m.Rows {
				w := want.At(b, i)
				if got := gemm.At(b, i); got != w {
					t.Fatalf("GOMAXPROCS %d, %dx%d, %d inputs: PackedGemm input %d row %d = %v, want %v",
						runtime.GOMAXPROCS(0), m.Rows, m.Cols, len(xs), b, i, got, w)
				}
				if skips[b] != nil && skips[b][i] {
					w = fill
				}
				if got := rows.At(b, i); got != w {
					t.Fatalf("GOMAXPROCS %d, %dx%d, %d inputs: PackedGemmRows member %d (masked %v) row %d = %v, want %v",
						runtime.GOMAXPROCS(0), m.Rows, m.Cols, len(xs), b, skips[b] != nil, i, got, w)
				}
			}
		}
	}
	inputs := func(n, cols int) []Vector {
		xs := make([]Vector, n)
		for b := range xs {
			xs[b] = randVector(r, cols)
		}
		return xs
	}
	// 129 columns make 28-row weight tiles: 57..60 rows end in a
	// partial tile of every row count mod 4.
	for rows := 57; rows <= 60; rows++ {
		m := randMatrix(r, rows, 129)
		for n := 1; n <= 10; n++ {
			check(t, m, inputs(n, m.Cols), func(b int) bool { return b%3 == 1 })
		}
	}
	m := randMatrix(r, 2600, 650)
	atGOMAXPROCS(t, []int{1, 2, 8}, func(t *testing.T) {
		mustFork(t, m.Rows, m)
		xs := inputs(17, m.Cols)
		mustFork(t, len(xs), m)
		check(t, m, xs, func(b int) bool { return b == 2 || b == 9 })
	})
	if blocks.Load() == 0 {
		t.Fatal("the block body was never called")
	}
}

// dotCounter binds kernels to counting bodies that record every
// (row, member) pair they dot: each united row's first element is its
// row index and each input's its member index, and a body returns
// 100·row + member. Forked shards count under the mutex.
type dotCounter struct {
	mu     sync.Mutex
	dotted map[[2]int]int
	tails  int // row-body calls: the dots outside a four-row or block body
}

func (c *dotCounter) reset() {
	c.dotted, c.tails = map[[2]int]int{}, 0
}

func (c *dotCounter) count(row, x []float32) float32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dotted[[2]int{int(row[0]), int(x[0])}]++
	return 100*row[0] + x[0]
}

// bodySets returns the three bindings every DRS contract runs under,
// each with span-level counting bodies: a row body alone (every span is
// the pure-Go loop over it, so every dot is a row-body call), a row
// body plus four-row span bodies, and those plus a block span body. The
// span bodies dot through count, not the row body: their rows are not
// tails.
func (c *dotCounter) bodySets() map[string]Kernels {
	dot := func(row, x []float32) float32 {
		c.mu.Lock()
		c.tails++
		c.mu.Unlock()
		return c.count(row, x)
	}
	spans := goKernels(c.count)
	quad := func(_ Kernels, dst, w, x []float32, kept []int, off int) { quadRows(spans, dst, w, x, kept, off) }
	gather := func(_ Kernels, dst, w, x []float32, at [4]int) { gatherRows(spans, dst, w, x, at) }
	block := func(_ Kernels, dsts [4][]float32, w []float32, xs [4][]float32, kept []int, off int) {
		blockRows(spans, dsts, w, xs, kept, off)
	}
	plusQuad := goKernels(dot)
	plusQuad.quad, plusQuad.gather = quad, gather
	plusBlock := plusQuad
	plusBlock.block = block
	return map[string]Kernels{"dot": goKernels(dot), "+quad": plusQuad, "+block": plusBlock}
}

// countedMatrix is a rows × cols matrix whose row r starts with r, and
// members inputs whose input b starts with b, for a dotCounter.
func countedMatrix(rows, cols, members int) (*Matrix, []Vector) {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		m.Set(r, 0, float32(r))
	}
	xs := make([]Vector, members)
	for b := range xs {
		xs[b] = NewVector(cols)
		xs[b][0] = float32(b)
	}
	return m, xs
}

// checkDots compares one kernel call's dots and outputs over rows
// [lo, hi) of members members with the masks: out(r, b) is where the
// call left row r of member b, masked(r, b) whether the call was told to
// skip it. Every kept pair must be dotted exactly once and land in its
// own output, every masked output must be fill, and no masked pair may
// be dotted at all.
func checkDots(t *testing.T, c *dotCounter, name string, lo, hi, members int, fill float32, out func(r, b int) float32, masked func(r, b int) bool) {
	t.Helper()
	for r := lo; r < hi; r++ {
		for b := 0; b < members; b++ {
			want, wantDots := float32(100*r+b), 1
			if masked(r, b) {
				want, wantDots = fill, 0
			}
			if got := out(r, b); got != want {
				t.Errorf("%s: row %d member %d = %v, want %v", name, r, b, got, want)
			}
			if got := c.dotted[[2]int{r, b}]; got != wantDots {
				t.Errorf("%s: row %d member %d dotted %d times, want %d", name, r, b, got, wantDots)
			}
		}
	}
	if n := len(c.dotted); n > (hi-lo)*members {
		t.Errorf("%s: %d pairs dotted, more than the %d of the call", name, n, (hi-lo)*members)
	}
}

// TestDRSSkipsWorkNotOutputs holds the masked kernels to aim 3 of the
// roadmap: Dynamic Row Skip must skip the dot, not just overwrite its
// output. The kernels are bound to counting bodies (dotCounter) under
// every body set, the masked GEMM (PackedGemmRows) and the gathered one
// over a group's shared list (PackedGemmKept) among them. Two shapes:
// 30 united rows of three 10-row segments, serial (the unmasked
// members' weight tiles are 12 rows, so tile edges fall inside
// segments); and 771 rows of three 257-row segments, large
// enough to fork, at GOMAXPROCS 1 and 2 — two shards of 386 rows, so
// the second shard's masked walks start inside a segment. Neither
// segment is a multiple of four rows, and the masks include none and all
// skipped.
func TestDRSSkipsWorkNotOutputs(t *testing.T) {
	const gates, fill = 3, -1
	for _, sh := range []struct {
		seg, cols int
		procs     []int
	}{{10, 300, []int{1}}, {257, 700, []int{1, 2}}} {
		kinds := maskKinds(rng.New(0x4d), sh.seg)
		// Unmasked members at the even indices (five: one block and one
		// left over), one member per mask kind between them.
		m, xs := countedMatrix(sh.seg*gates, sh.cols, 1+2*len(kinds))
		skips := make([][]bool, len(xs))
		for b := range xs {
			if b%2 == 1 {
				skips[b] = kinds[b/2].skip
			}
		}
		c := &dotCounter{}
		atGOMAXPROCS(t, sh.procs, func(t *testing.T) {
			if sh.seg > 10 {
				mustFork(t, m.Rows, m)
			}
			for set, k := range c.bodySets() {
				label := func(call string) string {
					return fmt.Sprintf("seg %d GOMAXPROCS %d %s %s", sh.seg, runtime.GOMAXPROCS(0), set, call)
				}
				for _, mk := range kinds {
					rowSkip := slices.Repeat(mk.skip, gates) // the segment mask over every united row
					c.reset()
					dst := NewVector(m.Rows)
					k.PackedGemvRows([]Vector{dst}, m, xs[0], rowSkip, fill)
					checkDots(t, c, label("PackedGemvRows one destination/"+mk.name), 0, m.Rows, 1, fill,
						func(r, _ int) float32 { return dst[r] }, func(r, _ int) bool { return rowSkip[r] })

					c.reset()
					dsts := make([]Vector, gates)
					for g := range dsts {
						dsts[g] = NewVector(sh.seg)
					}
					k.PackedGemvRows(dsts, m, xs[0], mk.skip, fill)
					checkDots(t, c, label("PackedGemvRows/"+mk.name), 0, m.Rows, 1, fill,
						func(r, _ int) float32 { return dsts[r/sh.seg][r%sh.seg] }, func(r, _ int) bool { return mk.skip[r%sh.seg] })
				}
				c.reset()
				dst := NewMatrix(len(xs), m.Rows)
				k.PackedGemmRows(dst, m, xs, masksOf(skips), fill)
				checkDots(t, c, label("PackedGemmRows"), 0, m.Rows, len(xs), fill,
					func(r, b int) float32 { return dst.At(b, r) },
					func(r, b int) bool { return skips[b] != nil && skips[b][r%sh.seg] })

				c.reset()
				k.PackedGemm(dst, m, xs)
				checkDots(t, c, label("PackedGemm"), 0, m.Rows, len(xs), fill,
					func(r, b int) float32 { return dst.At(b, r) }, func(int, int) bool { return false })

				c.reset()
				rows := make([]Vector, len(xs))
				for b := range rows {
					rows[b] = NewVector(m.Rows)
				}
				k.PackedGemmInto(rows, m, xs)
				checkDots(t, c, label("PackedGemmInto"), 0, m.Rows, len(xs), fill,
					func(r, b int) float32 { return rows[b][r] }, func(int, int) bool { return false })

				// The union of a group's masks, tiled over the united
				// rows: every member dots exactly the listed rows, each
				// once — the odd member count leaves a short group.
				for _, mk := range kinds {
					kept := maskOf(slices.Repeat(mk.skip, gates)).Kept
					c.reset()
					dsts := make([]Vector, len(xs))
					for b := range dsts {
						dsts[b] = slices.Repeat(Vector{fill}, m.Rows)
					}
					k.PackedGemmKept(dsts, m, xs, kept)
					checkDots(t, c, label("PackedGemmKept/"+mk.name), 0, m.Rows, len(xs), fill,
						func(r, b int) float32 { return dsts[b][r] }, func(r, _ int) bool { return mk.skip[r%sh.seg] })
				}
				// A nil list keeps no row: a span body would read it as
				// the whole range.
				c.reset()
				dsts := make([]Vector, len(xs))
				for b := range dsts {
					dsts[b] = slices.Repeat(Vector{fill}, m.Rows)
				}
				k.PackedGemmKept(dsts, m, xs, nil)
				checkDots(t, c, label("PackedGemmKept/nil"), 0, m.Rows, len(xs), fill,
					func(r, b int) float32 { return dsts[b][r] }, func(int, int) bool { return true })
			}
		})
	}
}

// TestPackedGemmKeptLoneInputTakesOneInputBody: a group of one input —
// the whole call, or the one left over past whole blocks of four — goes
// through the one-input span body over the list, one call, and never
// through the block body, whose vector bodies would dot it four times.
// Every listed output is dotRowGeneric's.
func TestPackedGemmKeptLoneInputTakesOneInputBody(t *testing.T) {
	r := rng.New(0x4e)
	m := randMatrix(r, 40, 33)
	kept := maskOf(randMask(r, 40, 0.5)).Kept
	for _, inputs := range []int{1, 5} {
		xs, dsts := make([]Vector, inputs), make([]Vector, inputs)
		for b := range xs {
			xs[b], dsts[b] = randVector(r, m.Cols), NewVector(m.Rows)
		}
		var quads, blocks int
		k := goKernels(dotRowGeneric)
		k.quad = func(k Kernels, dst, w, x []float32, kept []int, off int) {
			quads++
			quadRows(k, dst, w, x, kept, off)
		}
		k.block = func(k Kernels, dsts [4][]float32, w []float32, xs [4][]float32, kept []int, off int) {
			if dsts[1] == nil {
				t.Errorf("%d inputs: a lone input went through the block body", inputs)
			}
			blocks++
			blockRows(k, dsts, w, xs, kept, off)
		}
		k.PackedGemmKept(dsts, m, xs, kept)
		// blockRows runs one four-row span per present input.
		if want := inputs / 4; blocks != want || quads != 4*want+1 {
			t.Errorf("%d inputs: %d block calls, %d four-row spans; want %d and %d", inputs, blocks, quads, want, 4*want+1)
		}
		for b, x := range xs {
			for _, i := range kept {
				if got, want := dsts[b][i], dotRowGeneric(m.Row(i), x); !sameBits(got, want) {
					t.Fatalf("%d inputs: input %d row %d = %v, want %v", inputs, b, i, got, want)
				}
			}
		}
	}
}

// TestDRSKeptWalkMatchesMaskAtEveryBoundary walks one member's kept list
// (spanKept) over every row range [lo, hi) of 30 united rows in three
// 10-row segments — ranges that start and end inside segments, as a
// fork shard's do, span none, one or all of the segments, and hold any
// kept-row count mod 4 — under every body set and mask kind (none, all,
// alternating, random skipped). Each call must dot every kept pair of
// its range once and nothing else, leave fill on the skipped rows and
// no write outside its range, and, where four-row span bodies are
// bound, send exactly its kept-row count mod 4 through the row body: the
// gather is carried across segment edges, so a call has at most one
// short tail.
func TestDRSKeptWalkMatchesMaskAtEveryBoundary(t *testing.T) {
	const seg, gates, cols, fill, outside = 10, 3, 40, -1, -2
	m, xs := countedMatrix(seg*gates, cols, 1)
	c := &dotCounter{}
	for set, k := range c.bodySets() {
		for _, mk := range maskKinds(rng.New(0x4e), seg) {
			mask := maskOf(mk.skip)
			for lo := 0; lo <= m.Rows; lo++ {
				for hi := lo; hi <= m.Rows; hi++ {
					c.reset()
					buf := slices.Repeat([]float32{outside}, m.Rows)
					k.spanKept(buf[lo:hi], m, xs[0], lo, mask, fill)
					name := fmt.Sprintf("%s/%s [%d, %d)", set, mk.name, lo, hi)
					checkDots(t, c, name, lo, hi, 1, fill,
						func(r, _ int) float32 { return buf[r] }, func(r, _ int) bool { return mk.skip[r%seg] })
					for r, v := range buf {
						if (r < lo || r >= hi) && v != outside {
							t.Fatalf("%s: wrote row %d outside the range", name, r)
						}
					}
					if set == "dot" {
						continue
					}
					kept := 0
					for r := lo; r < hi; r++ {
						if !mk.skip[r%seg] {
							kept++
						}
					}
					if c.tails != kept%4 {
						t.Fatalf("%s: %d row-body dots for %d kept rows, want %d", name, c.tails, kept, kept%4)
					}
				}
			}
		}
	}
}

func TestPackedGemvBitwiseEqualsPerGateGemv(t *testing.T) {
	forEachChain(t, packedGemvEqualsPerGate)
}

func TestPackedGemvRowsBitwiseEqualsRowBody(t *testing.T) {
	forEachChain(t, packedGemvRowsEqualsRowBody)
}

func TestPackedGemmBitwiseEqualsGemvAtAnyGOMAXPROCS(t *testing.T) {
	forEachChain(t, packedGemmEqualsGemv)
}

func TestPackedGemmRowsBitwiseEqualsPerMemberAtAnyGOMAXPROCS(t *testing.T) {
	forEachChain(t, packedGemmRowsEqualsPerMember)
}

func TestPackedGemvRowsNilSkipEqualsPackedGemv(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		r := rng.New(0x43)
		m := randMatrix(r, 3*7, 11)
		x := randVector(r, 11)
		a := []Vector{NewVector(7), NewVector(7), NewVector(7)}
		b := []Vector{NewVector(7), NewVector(7), NewVector(7)}
		k.PackedGemv(a, m, x)
		k.PackedGemvRows(b, m, x, nil, 0)
		for g := range a {
			for i := range a[g] {
				if a[g][i] != b[g][i] {
					t.Fatalf("gate %d row %d: %v != %v", g, i, a[g][i], b[g][i])
				}
			}
		}
	})
}

// TestPackedGemmRowsNilSkipsEqualsPackedGemm: a nil mask set (and a set
// of all-nil member masks) degenerates to the plain batched product.
func TestPackedGemmRowsNilSkipsEqualsPackedGemm(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		r := rng.New(0x49)
		const rows, cols, members = 21, 13, 4
		m := randMatrix(r, rows, cols)
		xs := make([]Vector, members)
		for b := range xs {
			xs[b] = randVector(r, cols)
		}
		want := NewMatrix(members, rows)
		k.PackedGemm(want, m, xs)
		for name, masks := range map[string][]RowMask{
			"nil set":    nil,
			"zero masks": make([]RowMask, members),
			"keep all":   slices.Repeat([]RowMask{maskOf(make([]bool, rows))}, members),
		} {
			dst := NewMatrix(members, rows)
			k.PackedGemmRows(dst, m, xs, masks, 0)
			for i := range dst.Data {
				if dst.Data[i] != want.Data[i] {
					t.Fatalf("%s: element %d: %v != %v", name, i, dst.Data[i], want.Data[i])
				}
			}
		}
	})
}

func TestPackedGemmRowsShapePanics(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		m := NewMatrix(8, 4)
		xs := []Vector{NewVector(4), NewVector(4)}
		mustPanic(t, map[string]func(){
			"dst rows":     func() { k.PackedGemmRows(NewMatrix(3, 8), m, xs, nil, 0) },
			"dst cols":     func() { k.PackedGemmRows(NewMatrix(2, 7), m, xs, nil, 0) },
			"x cols":       func() { k.PackedGemmRows(NewMatrix(2, 8), m, []Vector{NewVector(4), NewVector(5)}, nil, 0) },
			"skips count":  func() { k.PackedGemmRows(NewMatrix(2, 8), m, xs, make([]RowMask, 3), 0) },
			"mask tiling":  func() { k.PackedGemmRows(NewMatrix(2, 8), m, xs, []RowMask{maskOf(make([]bool, 3)), {}}, 0) },
			"negative seg": func() { k.PackedGemmRows(NewMatrix(2, 8), m, xs, []RowMask{{Seg: -4}, {}}, 0) },
			"kept, no seg": func() { k.PackedGemmRows(NewMatrix(2, 8), m, xs, []RowMask{{Kept: []int{0}}, {}}, 0) },
			"kept past seg": func() {
				k.PackedGemmRows(NewMatrix(2, 8), m, xs, []RowMask{{Seg: 4, Kept: []int{1, 4}}, {}}, 0)
			},
			"kept below 0": func() {
				k.PackedGemmRows(NewMatrix(2, 8), m, xs, []RowMask{{Seg: 4, Kept: []int{-1, 2}}, {}}, 0)
			},
			// A GRU 2h skip mask on its 3h united matrix (h = 2).
			"gru 2h mask on 3h": func() {
				k.PackedGemmRows(NewMatrix(2, 6), NewMatrix(6, 4), xs, []RowMask{maskOf([]bool{true, false, false, true}), {}}, 0)
			},
		})
	})
}

func TestPackValidatesAndConcatenates(t *testing.T) {
	r := rng.New(0x48)
	a := randMatrix(r, 2, 3)
	b := randMatrix(r, 4, 3)
	p := Pack(a, b)
	if p.Rows != 6 || p.Cols != 3 {
		t.Fatalf("packed shape %dx%d, want 6x3", p.Rows, p.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("pack block a mismatch at (%d,%d)", i, j)
			}
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if p.At(2+i, j) != b.At(i, j) {
				t.Fatalf("pack block b mismatch at (%d,%d)", i, j)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on column mismatch")
		}
	}()
	Pack(a, NewMatrix(2, 4))
}

func TestRowBlockAliasesStorage(t *testing.T) {
	m := NewMatrix(6, 3)
	blk := m.RowBlock(2, 5)
	if blk.Rows != 3 || blk.Cols != 3 {
		t.Fatalf("block shape %dx%d, want 3x3", blk.Rows, blk.Cols)
	}
	m.Set(2, 1, 42)
	if blk.At(0, 1) != 42 {
		t.Fatal("RowBlock does not alias the parent storage")
	}
}

func TestPackedShapePanics(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		m := NewMatrix(8, 4)
		mustPanic(t, map[string]func(){
			"dst rows":     func() { k.PackedGemv([]Vector{NewVector(3)}, m, NewVector(4)) },
			"x cols":       func() { k.PackedGemv([]Vector{NewVector(8)}, m, NewVector(5)) },
			"seg differ":   func() { k.PackedGemvRows([]Vector{NewVector(3), NewVector(5)}, m, NewVector(4), nil, 0) },
			"skip len":     func() { k.PackedGemvRows([]Vector{NewVector(4), NewVector(4)}, m, NewVector(4), make([]bool, 3), 0) },
			"one dst x":    func() { k.PackedGemvRows([]Vector{NewVector(8)}, m, NewVector(5), nil, 0) },
			"one dst len":  func() { k.PackedGemvRows([]Vector{NewVector(7)}, m, NewVector(4), nil, 0) },
			"one dst skip": func() { k.PackedGemvRows([]Vector{NewVector(8)}, m, NewVector(4), make([]bool, 4), 0) },
			"gemm dst":     func() { k.PackedGemm(NewMatrix(2, 7), m, []Vector{NewVector(4), NewVector(4)}) },
			"gemm x":       func() { k.PackedGemm(NewMatrix(2, 8), m, []Vector{NewVector(4), NewVector(3)}) },
			"into count":   func() { k.PackedGemmInto([]Vector{NewVector(8)}, m, []Vector{NewVector(4), NewVector(4)}) },
			"into dst": func() {
				k.PackedGemmInto([]Vector{NewVector(8), NewVector(7)}, m, []Vector{NewVector(4), NewVector(4)})
			},
			"into x":     func() { k.PackedGemmInto([]Vector{NewVector(8)}, m, []Vector{NewVector(5)}) },
			"kept count": func() { k.PackedGemmKept([]Vector{NewVector(8)}, m, []Vector{NewVector(4), NewVector(4)}, nil) },
			"kept dst":   func() { k.PackedGemmKept([]Vector{NewVector(7)}, m, []Vector{NewVector(4)}, []int{0}) },
			"kept x":     func() { k.PackedGemmKept([]Vector{NewVector(8)}, m, []Vector{NewVector(3)}, []int{0}) },
			// A GRU 2h skip mask on its 3h united matrix (h = 2).
			"gru 2h mask on 3h": func() {
				k.PackedGemvRows([]Vector{NewVector(2), NewVector(2), NewVector(2)}, NewMatrix(6, 4), NewVector(4), make([]bool, 4), 0)
			},
		})
	})
	mustPanic(t, map[string]func(){"rowblock": func() { NewMatrix(8, 4).RowBlock(3, 9) }})
}

// TestPackedGemmRowsRejectsMalformedKept: PackedGemmRows checks every
// kept list whole — strictly ascending in [0, Seg) — before it dots a
// row, since the assembly bodies gather rows by index with no bounds
// checks of their own. An interior index past the segment, a repeated
// index and a descending list, each with in-range ends, must be Panicf
// violations that leave dst and the canaries around it untouched.
func TestPackedGemmRowsRejectsMalformedKept(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		r := rng.New(0x4f)
		m := randMatrix(r, 32, 8)
		xs := []Vector{randVector(r, 8), randVector(r, 8)}
		for name, kept := range map[string][]int{
			"interior past seg": {0, 1, 9, 3},
			"duplicate":         {1, 2, 2, 5},
			"descending":        {6, 4, 3, 1},
		} {
			dst, buf := canaried(len(xs) * m.Rows)
			var err error
			func() {
				defer Guard(&err)
				k.PackedGemmRows(&Matrix{Rows: len(xs), Cols: m.Rows, Data: dst}, m, xs,
					[]RowMask{{}, {Seg: 8, Kept: kept}}, 0)
			}()
			if err == nil {
				t.Errorf("%s %v: no violation", name, kept)
			}
			checkCanaried(t, name, buf, func(int) bool { return false }, nil)
		}
	})
}

// TestPackedGemmKeptRejectsMalformedKept is the same rule for the
// gathered GEMM's shared list, strictly ascending in [0, m.Rows): a row
// past the matrix, a repeat, a descent and a negative row must be
// Panicf violations that write nothing.
func TestPackedGemmKeptRejectsMalformedKept(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		r := rng.New(0x51)
		m := randMatrix(r, 32, 8)
		xs := []Vector{randVector(r, 8), randVector(r, 8), randVector(r, 8), randVector(r, 8)}
		for name, kept := range map[string][]int{
			"past the rows": {0, 1, 32, 33},
			"duplicate":     {1, 2, 2, 5},
			"descending":    {6, 4, 3, 1},
			"negative":      {-1, 2, 3, 4},
		} {
			dsts, bufs := make([]Vector, len(xs)), make([][]float32, len(xs))
			for b := range dsts {
				dsts[b], bufs[b] = canaried(m.Rows)
			}
			var err error
			func() {
				defer Guard(&err)
				k.PackedGemmKept(dsts, m, xs, kept)
			}()
			if err == nil {
				t.Errorf("%s %v: no violation", name, kept)
			}
			for _, buf := range bufs {
				checkCanaried(t, name, buf, func(int) bool { return false }, nil)
			}
		}
	})
}

// TestPackedGemvRowsAllocatesNothing pins the []bool-masked kernel at
// zero allocations: the mask is compacted chunk by chunk on the stack
// and handed to the gather body by value.
func TestPackedGemvRowsAllocatesNothing(t *testing.T) {
	forEachChain(t, func(t *testing.T, k Kernels, _ rowBodyFn) {
		r := rng.New(0x50)
		const seg = 200 // more than three mask chunks
		m := randMatrix(r, 3*seg, 24)
		x := randVector(r, m.Cols)
		dsts := []Vector{NewVector(seg), NewVector(seg), NewVector(seg)}
		skip := randMask(r, seg, 0.6)
		if got := testing.AllocsPerRun(50, func() { k.PackedGemvRows(dsts, m, x, skip, -1) }); got != 0 {
			t.Errorf("PackedGemvRows makes %v allocs, want 0", got)
		}
	})
}
