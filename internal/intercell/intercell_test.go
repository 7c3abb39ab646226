package intercell

import (
	"testing"
	"testing/quick"

	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

func constMatrix(rows, cols int, v float32) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

func newTestAnalyzer(h int, uval float32) *Analyzer {
	u := constMatrix(h, h, uval)
	b := tensor.NewVector(h)
	return NewAnalyzer(u, u.Clone(), u.Clone(), u.Clone(), b, b.Clone(), b.Clone(), b.Clone())
}

func TestAnalyzerShapesChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for inconsistent shapes")
		}
	}()
	u := tensor.NewMatrix(4, 4)
	NewAnalyzer(u, u, u, tensor.NewMatrix(5, 5),
		tensor.NewVector(4), tensor.NewVector(4), tensor.NewVector(4), tensor.NewVector(4))
}

func TestRelevanceZeroWhenSaturated(t *testing.T) {
	// Tiny U (D ~ 0) and strongly positive X' for every gate: all
	// activation inputs sit deep in their insensitive areas, so the
	// previous cell's output cannot matter: S = 0.
	a := newTestAnalyzer(8, 0.001)
	x := tensor.NewVector(8)
	for i := range x {
		x[i] = 10
	}
	if s := a.Relevance(x, x, x, x); s > 0.5 {
		t.Fatalf("saturated cell has relevance %v, want ~0", s)
	}
}

func TestRelevanceHighWhenSensitive(t *testing.T) {
	// X' = 0 and moderate U: the activation inputs straddle the
	// sensitive area, so the link is strong.
	a := newTestAnalyzer(8, 0.2) // D = 1.6 per row
	x := tensor.NewVector(8)
	s := a.Relevance(x, x, x, x)
	if s < 0.5*8 {
		t.Fatalf("sensitive cell has relevance %v", s)
	}
}

func TestRelevanceMonotoneInSaturation(t *testing.T) {
	// Beyond the sensitive boundary (+2), pushing the pre-activations
	// further into saturation cannot increase relevance. (Inside the
	// sensitive area the forget-gate term may still grow toward its
	// cap, so monotonicity starts at the boundary.)
	a := newTestAnalyzer(16, 0.05)
	prev := -1.0
	for _, mag := range []float32{2, 3, 5, 8} {
		x := tensor.NewVector(16)
		for i := range x {
			x[i] = mag
		}
		s := a.Relevance(x, x, x, x)
		if prev >= 0 && s > prev+1e-9 {
			t.Fatalf("relevance increased with saturation: %v -> %v at %v", prev, s, mag)
		}
		prev = s
	}
}

func TestRelevanceBounds(t *testing.T) {
	r := rng.New(17)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		h := 1 + rr.Intn(12)
		u := tensor.NewMatrix(h, h)
		for i := range u.Data {
			u.Data[i] = rr.NormF32(0, 0.5)
		}
		b := tensor.NewVector(h)
		for i := range b {
			b[i] = rr.NormF32(0, 1)
		}
		a := NewAnalyzer(u, u.Clone(), u.Clone(), u.Clone(), b, b.Clone(), b.Clone(), b.Clone())
		x := tensor.NewVector(h)
		for i := range x {
			x[i] = rr.NormF32(0, 2)
		}
		// Per element the forget-gate term saturates at 4 and each line-5
		// overlap at 2, so S^j <= 2 * (4 + 2*2) = 16.
		s := a.Relevance(x, x, x, x)
		return s >= 0 && s <= 16*float64(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: quickSeed(r)}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakpoints(t *testing.T) {
	s := []float64{5, 1, 7, 0.5, 3}
	got := Breakpoints(s, 2)
	want := []int{2, 4}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Breakpoints = %v, want %v", got, want)
	}
	if b := Breakpoints(s, 0); b != nil {
		t.Fatalf("alpha 0 broke links: %v", b)
	}
}

func TestSublayers(t *testing.T) {
	subs := Sublayers(6, []int{2, 4})
	if len(subs) != 3 {
		t.Fatalf("sublayers: %v", subs)
	}
	if len(subs[0]) != 2 || subs[0][0] != 0 || subs[0][1] != 1 {
		t.Fatalf("first sublayer: %v", subs[0])
	}
	if subs[2][1] != 5 {
		t.Fatalf("last sublayer: %v", subs[2])
	}
	// No breaks: one sub-layer covering everything.
	one := Sublayers(4, nil)
	if len(one) != 1 || len(one[0]) != 4 {
		t.Fatalf("no-break sublayers: %v", one)
	}
	// Out-of-range breakpoints are ignored.
	same := Sublayers(4, []int{0, 4, 9})
	if len(same) != 1 {
		t.Fatalf("invalid breaks honored: %v", same)
	}
}

func TestSublayersCoverAllCells(t *testing.T) {
	r := rng.New(23)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(50)
		var breaks []int
		for i := 1; i < n; i++ {
			if rr.Bernoulli(0.3) {
				breaks = append(breaks, i)
			}
		}
		subs := Sublayers(n, breaks)
		seen := make([]bool, n)
		prev := -1
		for _, s := range subs {
			for _, c := range s {
				if c <= prev || seen[c] {
					return false
				}
				seen[c] = true
				prev = c
			}
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: quickSeed(r)}); err != nil {
		t.Fatal(err)
	}
}

func TestFormTissues(t *testing.T) {
	// The Fig. 8 example: sub-layers {0,1,2}, {3}, {4,5,6}, {7,8}.
	subs := [][]int{{0, 1, 2}, {3}, {4, 5, 6}, {7, 8}}
	tissues := FormTissues(subs)
	if len(tissues) != 3 {
		t.Fatalf("tissue count %d, want 3", len(tissues))
	}
	// Tissue 0 = first cells: 0, 3, 4, 7 (as in the paper's example).
	want0 := []int{0, 3, 4, 7}
	for i, c := range want0 {
		if tissues[0][i] != c {
			t.Fatalf("tissue 0 = %v, want %v", tissues[0], want0)
		}
	}
	// Tissue 1 = 1, 5, 8.
	if len(tissues[1]) != 3 || tissues[1][2] != 8 {
		t.Fatalf("tissue 1 = %v", tissues[1])
	}
}

func TestAlignTissuesRespectsMTS(t *testing.T) {
	subs := [][]int{{0, 1, 2}, {3}, {4, 5, 6}, {7, 8}}
	tissues := AlignTissues(subs, 3)
	for _, tis := range tissues {
		if len(tis) > 3 {
			t.Fatalf("tissue over MTS: %v", tis)
		}
	}
	total := 0
	for _, tis := range tissues {
		total += len(tis)
	}
	if total != 9 {
		t.Fatalf("alignment lost cells: %d", total)
	}
}

// Property: alignment preserves per-sub-layer order (a cell executes in a
// strictly later tissue than its predecessor) and every cell appears
// exactly once.
func TestAlignTissuesDependencyProperty(t *testing.T) {
	r := rng.New(31)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(60)
		mts := 1 + rr.Intn(7)
		var breaks []int
		for i := 1; i < n; i++ {
			if rr.Bernoulli(0.25) {
				breaks = append(breaks, i)
			}
		}
		subs := Sublayers(n, breaks)
		tissues := AlignTissues(subs, mts)
		// Position of each cell in the tissue schedule.
		pos := make(map[int]int, n)
		count := 0
		for ti, tis := range tissues {
			if len(tis) > mts {
				return false
			}
			for _, c := range tis {
				if _, dup := pos[c]; dup {
					return false
				}
				pos[c] = ti
				count++
			}
		}
		if count != n {
			return false
		}
		for _, s := range subs {
			for i := 1; i < len(s); i++ {
				if pos[s[i]] <= pos[s[i-1]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: quickSeed(r)}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignTissuesReachesNMin(t *testing.T) {
	// With enough sub-layers, the aligned tissue count hits Eq. 7's
	// minimum.
	subs := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}
	tissues := AlignTissues(subs, 5)
	if len(tissues) != MinTissues(10, 5) {
		t.Fatalf("tissue count %d, want %d", len(tissues), MinTissues(10, 5))
	}
}

func TestTissueSizes(t *testing.T) {
	sz := TissueSizes([][]int{{1, 2}, {3}, nil})
	if len(sz) != 3 || sz[0] != 2 || sz[1] != 1 || sz[2] != 0 {
		t.Fatalf("TissueSizes: %v", sz)
	}
}

func TestMinTissues(t *testing.T) {
	if MinTissues(86, 5) != 18 {
		t.Fatalf("MinTissues(86,5) = %d", MinTissues(86, 5))
	}
	if MinTissues(10, 0) != 10 {
		t.Fatalf("MinTissues with mts 0: %d", MinTissues(10, 0))
	}
}

func TestLinkStats(t *testing.T) {
	ls := NewLinkStats(2)
	ls.Observe(tensor.Vector{1, 0}, tensor.Vector{2, 2})
	ls.Observe(tensor.Vector{0, 1}, tensor.Vector{0, 0})
	p := ls.Predictor()
	if p.H[0] != 0.5 || p.H[1] != 0.5 {
		t.Fatalf("predicted H: %v", p.H)
	}
	if p.C[0] != 1 || p.C[1] != 1 {
		t.Fatalf("predicted C: %v", p.C)
	}
	if ls.Count() != 2 {
		t.Fatalf("count: %d", ls.Count())
	}
}

func TestLinkStatsEmpty(t *testing.T) {
	p := NewLinkStats(3).Predictor()
	for i := range p.H {
		if p.H[i] != 0 || p.C[i] != 0 {
			t.Fatal("empty predictor not zero")
		}
	}
}

func TestLinkStatsDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	NewLinkStats(3).Observe(tensor.Vector{1}, tensor.Vector{1})
}
