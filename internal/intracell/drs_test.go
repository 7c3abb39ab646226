package intracell

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// keptRows is a tissue's kept list as the step compacts it
// (tensor.KeptRowsInto), over fresh mask words.
func keptRows(dst []int, os []tensor.Vector, alpha float64) []int {
	return tensor.KeptRowsInto(dst, make([]uint16, tensor.MaskWords(len(dst))), os, alpha).Kept
}

func TestTrivialRowsBasic(t *testing.T) {
	// A NaN row is trivial, as in the compaction: !(o >= alpha).
	o := tensor.Vector{0.01, 0.5, 0.09, 0.3, float32(math.NaN())}
	skip, n := TrivialRows(o, 0.1)
	if n != 3 || !skip[0] || skip[1] || !skip[2] || skip[3] || !skip[4] {
		t.Fatalf("skip=%v n=%d", skip, n)
	}
}

func TestTrivialRowsDisabled(t *testing.T) {
	o := tensor.Vector{0.01, 0.5}
	if skip, n := TrivialRows(o, 0); skip != nil || n != 0 {
		t.Fatal("alpha 0 skipped rows")
	}
	if skip, n := TrivialRows(o, -1); skip != nil || n != 0 {
		t.Fatal("negative alpha skipped rows")
	}
}

func TestTrivialRowsBoundary(t *testing.T) {
	// Strictly-below semantics: o == alpha is kept.
	o := tensor.Vector{0.1}
	if _, n := TrivialRows(o, 0.1); n != 0 {
		t.Fatal("o == alpha skipped")
	}
}

// TestKeptRowsCompareInFloat32 pins the DRS comparison to float32 at a
// threshold float32 cannot hold exactly: α = 0.225 (set 5, PTB's served
// AO point) rounds down to 0.22499999404. A row whose o is exactly
// float32(α) clears the float32 threshold and is kept; compared in
// float64 (float64(o) >= α) it would be skipped. At α = 0.1, which
// rounds up, the two comparisons agree, so TestTrivialRowsBoundary
// cannot tell them apart.
func TestKeptRowsCompareInFloat32(t *testing.T) {
	const alpha = 0.225
	at := float32(alpha)
	if float64(at) >= alpha {
		t.Fatalf("float32(%v) = %v does not round down", alpha, at)
	}
	o := tensor.Vector{0.1, at, 0.5}
	if skip, n := TrivialRows(o, alpha); n != 1 || !skip[0] || skip[1] {
		t.Errorf("TrivialRows skip = %v (%d trivial), want only row 0", skip, n)
	}
	low := tensor.Vector{0.1, 0.1, 0.1}
	for _, cells := range [][]tensor.Vector{{o}, {low, o}, {o, low, low}} {
		if kept := keptRows(make([]int, len(o)), cells, alpha); !slices.Equal(kept, []int{1, 2}) {
			t.Errorf("%d cells: kept %v, want [1 2]", len(cells), kept)
		}
		mk := tensor.KeptRowsInto(make([]int, len(o)), make([]uint16, 1), cells, alpha)
		if mk.Bits[0] != 0b110 {
			t.Errorf("%d cells: mask bits %03b, want 110", len(cells), mk.Bits[0])
		}
	}
}

func TestTissueTrivialRowsIntersection(t *testing.T) {
	os := []tensor.Vector{
		{0.01, 0.5, 0.05},
		{0.02, 0.02, 0.5},
	}
	kept := keptRows(make([]int, 3), os, 0.1)
	// Only element 0 is trivial in every cell.
	if !slices.Equal(kept, []int{1, 2}) {
		t.Fatalf("kept=%v, want [1 2]", kept)
	}
}

func TestTissueTrivialRowsSingleCellMatchesPerCell(t *testing.T) {
	r := rng.New(5)
	o := tensor.NewVector(64)
	for i := range o {
		o[i] = r.Float32()
	}
	skip, n := TrivialRows(o, 0.3)
	kept := keptRows(make([]int, 64), []tensor.Vector{o}, 0.3)
	if len(kept) != 64-n {
		t.Fatalf("%d kept, %d skipped of 64", len(kept), n)
	}
	for _, j := range kept {
		if skip[j] {
			t.Fatalf("row %d kept, but trivial for the one cell", j)
		}
	}
}

func TestTissueTrivialRowsEmpty(t *testing.T) {
	if kept := keptRows(nil, nil, 0.1); len(kept) != 0 {
		t.Fatalf("empty tissue kept %v", kept)
	}
	if kept := keptRows([]int{}, []tensor.Vector{{}}, 0.1); len(kept) != 0 {
		t.Fatalf("zero-width cell kept %v", kept)
	}
}

// perCellKept is the reference for the compaction built from the
// per-cell TrivialRows: row j is kept unless every cell skips it.
func perCellKept(os []tensor.Vector, dim int, alpha float64) []int {
	skips := make([][]bool, len(os))
	for c, o := range os {
		skips[c], _ = TrivialRows(o, alpha)
	}
	kept := []int{}
	for j := 0; j < dim; j++ {
		trivial := alpha > 0
		for _, skip := range skips {
			trivial = trivial && skip[j]
		}
		if !trivial {
			kept = append(kept, j)
		}
	}
	return kept
}

// TestTissueKeptRowsMatchesTissueTrivialRows: the kept list is the
// complement, ascending, of the tissue's trivial rows — the intersection
// of the per-cell TrivialRows skip sets — for one cell (the comparison
// pass) and for several, NaN outputs included; with DRS off it is every
// row.
func TestTissueKeptRowsMatchesTissueTrivialRows(t *testing.T) {
	r := rng.New(13)
	nan := float32(math.NaN())
	for cells := 1; cells <= 4; cells++ {
		os := make([]tensor.Vector, cells)
		for c := range os {
			os[c] = tensor.NewVector(37)
			for j := range os[c] {
				os[c][j] = r.Float32()
			}
			os[c][(5*c)%37] = nan
			os[c][36] = nan
		}
		for _, alpha := range []float64{0.6, 0, -1} {
			want := perCellKept(os, 37, alpha)
			if got := keptRows(make([]int, 37), os, alpha); !slices.Equal(got, want) {
				t.Fatalf("%d cells, alpha %v: kept %v, want %v", cells, alpha, got, want)
			}
		}
	}
}

// TestTissueKeptRowsNaNIsTrivial pins the tissue rule !(o >= alpha): a
// NaN row is trivial for its cell, on the one-cell pass and on the
// several-cell one, where another cell can still keep the row.
func TestTissueKeptRowsNaNIsTrivial(t *testing.T) {
	nan := float32(math.NaN())
	one := keptRows(make([]int, 3), []tensor.Vector{{nan, 0.5, 0.05}}, 0.1)
	if len(one) != 1 || one[0] != 1 {
		t.Fatalf("one cell: kept %v, want [1]", one)
	}
	two := keptRows(make([]int, 3), []tensor.Vector{{nan, nan, 0.05}, {0.5, nan, 0.05}}, 0.1)
	if len(two) != 1 || two[0] != 0 {
		t.Fatalf("two cells: kept %v, want [0]", two)
	}
}

// TestTissueKeptRowsValidatesEveryCell: a mis-sized cell is a Panicf
// violation wherever it sits in the tissue, before any row is read —
// also after a cell whose first row is kept, the row at which a scan
// that stops at the first keeping cell would never reach it.
func TestTissueKeptRowsValidatesEveryCell(t *testing.T) {
	for name, os := range map[string][]tensor.Vector{
		"one cell":    {{0.5, 0.5}},
		"first cell":  {{0.5, 0.5}, {0.5, 0.5, 0.5}},
		"later short": {{0.5, 0.5, 0.5}, {0.5, 0.5}},
		"later long":  {{0.5, 0.5, 0.5}, {0.05, 0.05, 0.05}, {0.5, 0.5, 0.5, 0.5}},
	} {
		var err error
		func() {
			defer tensor.Guard(&err)
			keptRows(make([]int, 3), os, 0.1)
		}()
		if err == nil {
			t.Errorf("%s: no violation", name)
		}
	}
}

// Property: the tissue intersection never skips more rows than any single
// cell would, and never a row some cell keeps.
func TestTissueIntersectionSubsetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(40)
		cells := 1 + r.Intn(5)
		os := make([]tensor.Vector, cells)
		for c := range os {
			os[c] = tensor.NewVector(dim)
			for j := range os[c] {
				os[c][j] = r.Float32()
			}
		}
		alpha := 0.05 + 0.4*r.Float64()
		kept := keptRows(make([]int, dim), os, alpha)
		inKept := make([]bool, dim)
		for _, j := range kept {
			inKept[j] = true
		}
		for _, o := range os {
			cSkip, cN := TrivialRows(o, alpha)
			if dim-len(kept) > cN {
				return false
			}
			for j := range cSkip {
				if !cSkip[j] && !inKept[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: quickSeedVals()}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneMatrix(t *testing.T) {
	m := tensor.NewMatrix(2, 2)
	copy(m.Data, []float32{0.05, -0.5, 0.2, -0.01})
	p, density := PruneMatrix(m, 0.1)
	if p.Data[0] != 0 || p.Data[3] != 0 {
		t.Fatalf("small elements kept: %v", p.Data)
	}
	if p.Data[1] != -0.5 || p.Data[2] != 0.2 {
		t.Fatalf("large elements changed: %v", p.Data)
	}
	if density != 0.5 {
		t.Fatalf("density %v", density)
	}
	// Original untouched.
	if m.Data[0] != 0.05 {
		t.Fatal("PruneMatrix mutated input")
	}
}

func TestPruneDensityConsistency(t *testing.T) {
	r := rng.New(7)
	m := tensor.NewMatrix(50, 50)
	for i := range m.Data {
		m.Data[i] = r.NormF32(0, 1)
	}
	_, d1 := PruneMatrix(m, 0.5)
	d2 := PruneDensity([]*tensor.Matrix{m}, 0.5)
	if math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("densities differ: %v vs %v", d1, d2)
	}
}

func TestPruneEpsForDensity(t *testing.T) {
	r := rng.New(9)
	ms := []*tensor.Matrix{tensor.NewMatrix(80, 80), tensor.NewMatrix(80, 80)}
	for _, m := range ms {
		for i := range m.Data {
			m.Data[i] = r.NormF32(0, 0.3)
		}
	}
	for _, target := range []float64{0.2, 0.315, 0.7} {
		eps := PruneEpsForDensity(ms, target)
		got := PruneDensity(ms, eps)
		if math.Abs(got-target) > 0.02 {
			t.Errorf("target %v: got density %v (eps %v)", target, got, eps)
		}
	}
}

func TestPruneEpsForDensityEdges(t *testing.T) {
	ms := []*tensor.Matrix{tensor.NewMatrix(4, 4)}
	if eps := PruneEpsForDensity(ms, 0); !math.IsInf(float64(eps), 1) {
		t.Fatalf("density 0 eps = %v", eps)
	}
	if eps := PruneEpsForDensity(ms, 1); eps != 0 {
		t.Fatalf("density 1 eps = %v", eps)
	}
}

// Gaussian weights pruned at ~1.016 sigma leave ~31.5% density — the
// calibration behind the paper's 37% data-movement reduction under
// value+index CSR (0.315 * 2 = 0.63).
func TestGaussianPruneMatchesAnalytic(t *testing.T) {
	r := rng.New(11)
	m := tensor.NewMatrix(200, 200)
	for i := range m.Data {
		m.Data[i] = r.NormF32(0, 1)
	}
	d := PruneDensity([]*tensor.Matrix{m}, 1.016)
	if math.Abs(d-0.315) > 0.02 {
		t.Fatalf("density at 1.016 sigma = %v, want ~0.315", d)
	}
}
