package experiments

import (
	"slices"
	"strings"
	"testing"

	"mobilstm/internal/energy"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/report"
	"mobilstm/internal/sched"
)

// tinySuite runs the full experiment pipeline at the smallest numeric
// shapes that still exercise every code path.
func tinySuite() *Suite {
	return NewSuite(Config{
		GPU: gpu.TegraX1(),
		Profile: model.Profile{Name: "tiny", HiddenCap: 64, LengthCap: 16,
			AccSamples: 8, PredictorSamples: 2, StatSamples: 2},
		Energy: energy.TegraX1(),
	})
}

func TestTables(t *testing.T) {
	s := tinySuite()
	if out := s.TableI().String(); !strings.Contains(out, "25.6GB/s") {
		t.Fatalf("Table I: %s", out)
	}
	out := s.TableII().String()
	for _, name := range BenchmarkNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("Table II missing %s", name)
		}
	}
}

func TestBenchmarkNamesOrder(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 6 || names[0] != "IMDB" || names[5] != "MT" {
		t.Fatalf("names: %v", names)
	}
}

func TestEngineCaching(t *testing.T) {
	s := tinySuite()
	if s.Engine("MR") != s.Engine("MR") {
		t.Fatal("engines not cached")
	}
}

func TestOutcomeCaching(t *testing.T) {
	s := tinySuite()
	a := s.Outcome("MR", sched.Combined, 5)
	b := s.Outcome("MR", sched.Combined, 5)
	if a != b {
		t.Fatal("outcomes not cached")
	}
}

func TestFig4OffChipDominates(t *testing.T) {
	s := tinySuite()
	res := s.baselineResult("PTB")
	fr := res.StallFractionsOf("sgemv_u")
	if fr[gpu.StallOffChip] < 0.6 {
		t.Fatalf("off-chip stall fraction %v, want dominant", fr[gpu.StallOffChip])
	}
	// The §III claim: Sgemv over 90% of execution.
	if share := res.CycleShareOf("sgemv_u"); share < 0.9 {
		t.Fatalf("sgemv share %v", share)
	}
}

func TestFig5BlowUpScalesWithLength(t *testing.T) {
	s := tinySuite()
	mr := s.RedundantLoadFactor("MR")   // 22 cells
	ptb := s.RedundantLoadFactor("PTB") // 200 cells
	if mr < 15 || mr > 25 {
		t.Fatalf("MR blow-up %v, want ~22x", mr)
	}
	if ptb < 150 || ptb > 210 {
		t.Fatalf("PTB blow-up %v, want ~200x", ptb)
	}
}

func TestFig6Utilization(t *testing.T) {
	s := tinySuite()
	g := s.baselineResult("SNLI").Group("sgemv_u")
	if g.DRAMUtil < 0.9 {
		t.Fatalf("off-chip util %v", g.DRAMUtil)
	}
	if g.SharedUtil > 0.5 {
		t.Fatalf("on-chip util %v, want light", g.SharedUtil)
	}
}

func TestFig9ShapesAndMTS(t *testing.T) {
	s := tinySuite()
	perf, util, mts := s.Fig9(8)
	if len(perf.Series) != 6 || len(util.Series) != 6 {
		t.Fatalf("series counts: %d, %d", len(perf.Series), len(util.Series))
	}
	for name, m := range mts {
		if m < 3 || m > 8 {
			t.Fatalf("%s MTS %d outside the paper's 5-6 neighbourhood", name, m)
		}
	}
	// Performance must rise to a peak then not keep rising past it
	// (Fig. 9's droop), and utilization must be non-decreasing up to
	// the MTS.
	for _, series := range perf.Series {
		peak := 0
		for i, v := range series.Y {
			if v > series.Y[peak] {
				peak = i
			}
		}
		if peak == 0 {
			t.Fatalf("%s: no tissue benefit at all", series.Name)
		}
		if peak == len(series.Y)-1 {
			t.Fatalf("%s: no droop within sweep", series.Name)
		}
	}
}

// TestFig9SeriesFollowTheZoo: every render lists the series in Zoo
// order. Map iteration order is drawn afresh per range statement, so a
// series loop over a map fails this within a few renders.
func TestFig9SeriesFollowTheZoo(t *testing.T) {
	s := tinySuite()
	want := BenchmarkNames()
	for range 16 {
		perf, util, _ := s.Fig9(2)
		for _, fig := range []*report.Figure{perf, util} {
			var got []string
			for _, sr := range fig.Series {
				got = append(got, sr.Name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: series %v, want the Zoo's %v", fig.Title, got, want)
			}
		}
	}
}

func TestFig14OrderingAndRanges(t *testing.T) {
	s := tinySuite()
	rows, table := s.Fig14()
	if len(rows) != 7 {
		t.Fatalf("rows: %d", len(rows))
	}
	avg := AverageOf(rows)
	if avg.Benchmark != "average" {
		t.Fatalf("last row: %q", avg.Benchmark)
	}
	// The paper's qualitative claims: combined > inter > 1, combined >
	// intra > 1, and combined energy saving is substantial.
	if !(avg.Combined > avg.Inter && avg.Combined > avg.Intra) {
		t.Fatalf("combined not best: %+v", avg)
	}
	if avg.Inter <= 1.2 || avg.Intra <= 1.1 {
		t.Fatalf("optimizations ineffective: %+v", avg)
	}
	if avg.CombinedSaving < 0.25 || avg.CombinedSaving > 0.8 {
		t.Fatalf("combined saving %v out of plausible band", avg.CombinedSaving)
	}
	if avg.CombinedAccuracy < 0.97 {
		t.Fatalf("AO accuracy %v below the 98%% requirement band", avg.CombinedAccuracy)
	}
	if table.String() == "" {
		t.Fatal("empty table")
	}
}

func TestFig16Shape(t *testing.T) {
	s := tinySuite()
	rows, _ := s.Fig16()
	avg := rows[len(rows)-1]
	// Zero-pruning moves fewer bytes but is slower than baseline;
	// hardware DRS beats software DRS.
	if avg.PruneCompression >= 1 {
		t.Fatalf("prune compression %v", avg.PruneCompression)
	}
	if avg.PruneSpeedup >= 1 {
		t.Fatalf("zero-pruning should degrade performance: %v", avg.PruneSpeedup)
	}
	if avg.HWSpeedup <= avg.SWSpeedup {
		t.Fatalf("hw DRS %v not better than sw %v", avg.HWSpeedup, avg.SWSpeedup)
	}
	if avg.DRSCompression <= 0.3 || avg.DRSCompression >= 0.9 {
		t.Fatalf("DRS compression %v", avg.DRSCompression)
	}
}

func TestFig19Curves(t *testing.T) {
	s := tinySuite()
	speed, acc, marks := s.Fig19()
	if len(speed.Series) != 6 || len(acc.Series) != 6 {
		t.Fatal("missing series")
	}
	for _, series := range speed.Series {
		if series.Y[0] != 1 {
			t.Fatalf("%s: set 0 speedup %v, want 1", series.Name, series.Y[0])
		}
		if series.Y[len(series.Y)-1] <= 1 {
			t.Fatalf("%s: max thresholds give no speedup", series.Name)
		}
	}
	for _, series := range acc.Series {
		if series.Y[0] != 1 {
			t.Fatalf("%s: set 0 accuracy %v, want 1", series.Name, series.Y[0])
		}
	}
	if marks.String() == "" {
		t.Fatal("no operating-point table")
	}
}

func TestFig18Ordering(t *testing.T) {
	s := tinySuite()
	for _, res := range s.UserStudyResults() {
		uo := res.Scores["UO"]
		ao := res.Scores["AO"]
		base := res.Scores["baseline"]
		bpa := res.Scores["BPA"]
		if !(uo >= ao-0.02 && ao > base) {
			t.Fatalf("%s: UO %v AO %v base %v", res.App, uo, ao, base)
		}
		// UO maximizes each user's expected score, so no fixed scheme
		// may beat it by more than rating noise.
		if bpa > uo+0.05 {
			t.Fatalf("%s: BPA %v beats UO %v beyond noise", res.App, bpa, uo)
		}
	}
}

func TestOverheadsSmall(t *testing.T) {
	s := tinySuite()
	out := s.Overheads().String()
	if out == "" {
		t.Fatal("empty overheads table")
	}
	// Inter-cell runtime overhead must stay in the few-percent band the
	// paper reports (2.23%).
	inter := s.AOOutcome("PTB", sched.Inter)
	var ovh float64
	if g := inter.Result.Group("relevance"); g != nil {
		ovh += g.Cycles
	}
	if g := inter.Result.Group("predict"); g != nil {
		ovh += g.Cycles
	}
	if frac := ovh / inter.Result.Cycles; frac > 0.08 {
		t.Fatalf("inter overhead %v, want few percent", frac)
	}
}
