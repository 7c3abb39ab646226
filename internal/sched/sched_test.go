package sched

import (
	"reflect"
	"strings"
	"testing"

	"mobilstm/internal/gpu"
	"mobilstm/internal/kernels"
	"mobilstm/internal/recurrent"
)

func plan(mode Mode) Plan {
	p := Plan{
		Cfg:    gpu.TegraX1(),
		Mode:   mode,
		Hidden: 512, Input: 512, Length: 40, Layers: 2,
		MTS:  5,
		Seed: 7,
	}
	switch mode {
	case Inter, Combined, Intra, IntraSW:
		p.Stats = []LayerStats{
			{BreakRate: 0.3, SkipFrac: 0.5},
			{BreakRate: 0.2, SkipFrac: 0.4},
		}
	case ZeroPrune:
		p.PruneDensity = 0.315
	}
	return p
}

func TestBaselineKernelSequence(t *testing.T) {
	ks := Kernels(plan(Baseline))
	// Per layer: 1 Sgemm + Length x (Sgemv + EW).
	want := 2 * (1 + 40*2)
	if len(ks) != want {
		t.Fatalf("kernel count %d, want %d", len(ks), want)
	}
	if ks[0].Name != kernels.NameSgemmWx {
		t.Fatalf("first kernel %q", ks[0].Name)
	}
	if ks[1].Name != kernels.NameSgemvU {
		t.Fatalf("second kernel %q", ks[1].Name)
	}
}

func TestBaselineSgemvDominates(t *testing.T) {
	// The §III measurement: Sgemv over 90% of execution time.
	sim := gpu.NewSimulator(gpu.TegraX1())
	res := sim.Run(Kernels(plan(Baseline)))
	if share := res.CycleShareOf(kernels.NameSgemvU); share < 0.85 {
		t.Fatalf("Sgemv share %v, want > 0.85", share)
	}
}

func TestInterLoadsWeightsPerTissue(t *testing.T) {
	sim := gpu.NewSimulator(gpu.TegraX1())
	base := sim.Run(Kernels(plan(Baseline)))
	inter := sim.Run(Kernels(plan(Inter)))
	// Tissue execution must reduce total DRAM traffic substantially.
	if inter.DRAMBytes > 0.7*base.DRAMBytes {
		t.Fatalf("inter DRAM %v vs base %v — insufficient reuse", inter.DRAMBytes, base.DRAMBytes)
	}
	if inter.Cycles >= base.Cycles {
		t.Fatal("inter not faster than baseline")
	}
	// Overhead kernels present.
	if inter.Group(kernels.NameRelevance) == nil || inter.Group(kernels.NamePredict) == nil {
		t.Fatal("missing inter-cell overhead kernels")
	}
}

func TestIntraFlowStructure(t *testing.T) {
	ks := Kernels(plan(Intra))
	// Per layer: Sgemm + Length x (SgemvUo, EW, DRS, SgemvUfic, EW).
	want := 2 * (1 + 40*5)
	if len(ks) != want {
		t.Fatalf("kernel count %d, want %d", len(ks), want)
	}
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name] = true
	}
	for _, n := range []string{kernels.NameSgemvUo, kernels.NameDRS, kernels.NameSgemvUfic} {
		if !names[n] {
			t.Fatalf("missing kernel %q", n)
		}
	}
}

func TestModeOrdering(t *testing.T) {
	// The Fig. 14/16 ordering: combined < inter < intra < baseline <
	// zero-prune in cycles; software DRS between baseline and hardware
	// intra.
	sim := gpu.NewSimulator(gpu.TegraX1())
	cycles := map[Mode]float64{}
	for _, m := range []Mode{Baseline, Inter, Intra, Combined, IntraSW, ZeroPrune} {
		cycles[m] = sim.Run(Kernels(plan(m))).Cycles
	}
	if !(cycles[Combined] < cycles[Inter] && cycles[Inter] < cycles[Intra] &&
		cycles[Intra] < cycles[Baseline]) {
		t.Fatalf("optimization ordering violated: %+v", cycles)
	}
	if cycles[ZeroPrune] <= cycles[Baseline] {
		t.Fatalf("zero-pruning should be slower than baseline: %v vs %v",
			cycles[ZeroPrune], cycles[Baseline])
	}
	if !(cycles[IntraSW] < cycles[Baseline]*1.05 && cycles[IntraSW] > cycles[Intra]) {
		t.Fatalf("software DRS should sit between hardware DRS and baseline: %+v", cycles)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Plan{
		{Cfg: gpu.TegraX1(), Mode: Baseline},                                 // zero shape
		func() Plan { p := plan(Inter); p.MTS = 0; return p }(),              // no MTS
		func() Plan { p := plan(Intra); p.Stats = nil; return p }(),          // no stats
		func() Plan { p := plan(ZeroPrune); p.PruneDensity = 0; return p }(), // no density
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			Kernels(p)
		}()
	}
}

func TestDeterministicSynthesis(t *testing.T) {
	a := Kernels(plan(Inter))
	b := Kernels(plan(Inter))
	if len(a) != len(b) {
		t.Fatal("synthesis not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kernel %d differs", i)
		}
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{Baseline, Inter, Intra, Combined, IntraSW, ZeroPrune} {
		if strings.HasPrefix(m.String(), "mode(") {
			t.Fatalf("mode %d unnamed", int(m))
		}
	}
	if Mode(99).String() != "mode(99)" {
		t.Fatal("unknown mode string")
	}
}

func TestTissueSizesRespectMTS(t *testing.T) {
	p := plan(Inter)
	ks := Kernels(p)
	for _, k := range ks {
		if k.Name == kernels.NameSgemmT {
			// Shared traffic encodes rows*h*t*4; t <= MTS means traffic
			// <= 4h*h*MTS*4.
			maxShared := float64(4*p.Hidden*p.Hidden*p.MTS) * 4 * 1.5 // reconfig margin
			if k.SharedBytes > maxShared {
				t.Fatalf("tissue kernel exceeds MTS traffic: %v > %v", k.SharedBytes, maxShared)
			}
		}
	}
}

func TestCombinedSkipsReduceTraffic(t *testing.T) {
	sim := gpu.NewSimulator(gpu.TegraX1())
	noSkip := plan(Combined)
	noSkip.Stats = []LayerStats{{BreakRate: 0.3}, {BreakRate: 0.2}}
	withSkip := plan(Combined)
	a := sim.Run(Kernels(noSkip))
	b := sim.Run(Kernels(withSkip))
	if b.DRAMBytes >= a.DRAMBytes {
		t.Fatal("combined skip did not reduce DRAM traffic")
	}
}

// TestPlanCell: the zero Cell lowers the LSTM, and a GRU plan is the
// same kernel sequence at three gate blocks — its baseline recurrent
// gemv streams three quarters of the LSTM's U bytes, and its DRS flow
// skips rows of the one candidate block.
func TestPlanCell(t *testing.T) {
	lstmCell := recurrent.Shape{Gates: 4, First: 1, State: 2}
	gruCell := recurrent.Shape{Gates: 3, First: 2, State: 1}
	for _, mode := range []Mode{Baseline, Inter, Intra, Combined, IntraSW, ZeroPrune} {
		p := plan(mode)
		zero := Kernels(p)
		p.Cell = lstmCell
		if explicit := Kernels(p); !reflect.DeepEqual(zero, explicit) {
			t.Fatalf("%v: the zero Cell does not lower the LSTM", mode)
		}
		p.Cell = gruCell
		if g := Kernels(p); len(g) != len(zero) {
			t.Fatalf("%v: GRU lowers to %d kernels, LSTM to %d", mode, len(g), len(zero))
		}
	}
	p := plan(Baseline)
	lstmU := Kernels(p)[1]
	p.Cell = gruCell
	if gruU := Kernels(p)[1]; gruU.Name != kernels.NameSgemvU || gruU.DRAMBytes >= lstmU.DRAMBytes {
		t.Fatalf("GRU gemv %+v not smaller than the LSTM's %+v", gruU, lstmU)
	}
	p = plan(Intra)
	p.Cell = gruCell
	for _, k := range Kernels(p)[:6] {
		// Layer 0 skips half the hidden units: h/2 of the h candidate rows.
		if k.Name == kernels.NameSgemvUfic && k.Threads > 512/2 {
			t.Fatalf("GRU candidate gemv runs %d threads, want at most %d", k.Threads, 512/2)
		}
	}
}
