package kernels

import (
	"testing"

	"mobilstm/internal/gpu"
)

func builder() *Builder { return NewBuilder(gpu.TegraX1()) }

// gruBuilder builds the GRU's rows: the LSTM's at three gate blocks (z,
// r, h), a two-block first stage and a one-block state.
func gruBuilder() *Builder {
	return NewCellBuilder(gpu.TegraX1(), Cell{Gates: 3, First: 2, State: 1})
}

func TestSgemvUTraffic(t *testing.T) {
	b := builder()
	h := 650
	k := b.SgemvU(h)
	// The united U is (4H x H) float32: 16*H^2 bytes, plus the input
	// vector and gate outputs.
	wantU := float64(16 * h * h)
	if k.DRAMBytes < wantU || k.DRAMBytes > wantU*1.01 {
		t.Fatalf("DRAM bytes %v, want ~%v", k.DRAMBytes, wantU)
	}
	if k.FLOPs != float64(8*h*h) {
		t.Fatalf("FLOPs %v", k.FLOPs)
	}
}

func TestSgemvUIsDRAMBound(t *testing.T) {
	// The §III observation: Sgemv saturates off-chip bandwidth while
	// shared memory stays lightly used (Fig. 6).
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	_, krs := sim.RunResults([]gpu.KernelSpec{builder().SgemvU(512)})
	k := krs[0]
	if k.DRAMUtil < 0.9 {
		t.Fatalf("DRAM util %v, want > 0.9", k.DRAMUtil)
	}
	if k.SharedUtil > 0.4 {
		t.Fatalf("shared util %v, want light (< 0.4)", k.SharedUtil)
	}
}

func TestSgemmTissueSharedTrafficGrowsLinearly(t *testing.T) {
	b := builder()
	k2, _ := b.SgemmTissue(256, 2)
	k4, _ := b.SgemmTissue(256, 4)
	if k4.SharedBytes < 1.9*k2.SharedBytes {
		t.Fatalf("shared traffic not ~linear in T: %v vs %v", k2.SharedBytes, k4.SharedBytes)
	}
	// DRAM traffic stays ~flat (U loaded once per tissue).
	if k4.DRAMBytes > 1.1*k2.DRAMBytes {
		t.Fatalf("DRAM traffic grew with T: %v vs %v", k2.DRAMBytes, k4.DRAMBytes)
	}
}

func TestSgemmTissueReconfiguresAboveMTS(t *testing.T) {
	b := builder()
	reconfAt := 0
	for tt := 1; tt <= 12; tt++ {
		if _, re := b.SgemmTissue(512, tt); re {
			reconfAt = tt
			break
		}
	}
	// The TX1 shared/DRAM roofline crossover sits near T=5-6 (Fig. 9).
	if reconfAt < 4 || reconfAt > 8 {
		t.Fatalf("reconfiguration at T=%d, want near the paper's MTS ~5-6", reconfAt)
	}
	// Reconfigured kernels must be slower per tissue than the last
	// unconfigured size (the Fig. 9 droop).
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	kGood, _ := b.SgemmTissue(512, reconfAt-1)
	kBad, _ := b.SgemmTissue(512, reconfAt)
	rGood := sim.Run([]gpu.KernelSpec{kGood})
	rBad := sim.Run([]gpu.KernelSpec{kBad})
	perCellGood := rGood.Cycles / float64(reconfAt-1)
	perCellBad := rBad.Cycles / float64(reconfAt)
	if perCellBad < perCellGood {
		t.Fatalf("reconfigured tissue cheaper per cell: %v vs %v", perCellBad, perCellGood)
	}
}

func TestSgemvUficSkipsSaveTraffic(t *testing.T) {
	b := builder()
	full := b.SgemvUfic(512, 0, DRSHardware)
	half := b.SgemvUfic(512, 3*512/2, DRSHardware)
	if half.DRAMBytes > 0.6*full.DRAMBytes {
		t.Fatalf("hardware DRS saved too little: %v vs %v", half.DRAMBytes, full.DRAMBytes)
	}
	if half.FLOPs >= full.FLOPs {
		t.Fatal("hardware DRS did not reduce FLOPs")
	}
}

func TestSoftwareDRSBarelyWins(t *testing.T) {
	// The Fig. 16 result: software DRS ~1.07x, hardware much better.
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	b := builder()
	h := 512
	skip := 3 * h / 2 // 50% of U_{f,i,c} rows
	dense := sim.Run([]gpu.KernelSpec{b.SgemvUfic(h, 0, DRSHardware)})
	sw := sim.Run([]gpu.KernelSpec{b.SgemvUfic(h, skip, DRSSoftware)})
	hw := sim.Run([]gpu.KernelSpec{b.SgemvUfic(h, skip, DRSHardware)})
	swGain := dense.Cycles / sw.Cycles
	hwGain := dense.Cycles / hw.Cycles
	if swGain < 1.0 || swGain > 1.35 {
		t.Fatalf("software DRS gain %v, want small (~1.1)", swGain)
	}
	if hwGain < 1.35 {
		t.Fatalf("hardware DRS gain %v, want substantial", hwGain)
	}
	if hwGain <= swGain {
		t.Fatal("hardware DRS not better than software")
	}
}

func TestSgemvUficClampsSkip(t *testing.T) {
	b := builder()
	k := b.SgemvUfic(64, 10000, DRSHardware)
	if k.FLOPs != 0 {
		t.Fatalf("over-skip FLOPs %v", k.FLOPs)
	}
	k2 := b.SgemvUfic(64, -5, DRSHardware)
	if k2.FLOPs != b.SgemvUfic(64, 0, DRSHardware).FLOPs {
		t.Fatal("negative skip not clamped")
	}
}

func TestPrunedSgemvSlowerDespiteFewerBytes(t *testing.T) {
	// The Fig. 16 zero-pruning result: ~37% fewer bytes moved yet ~35%
	// slower than dense.
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	b := builder()
	h := 512
	dense := sim.Run([]gpu.KernelSpec{b.SgemvU(h)})
	pruned := sim.Run([]gpu.KernelSpec{b.PrunedSgemv(h, 0.315)})
	byteRatio := pruned.DRAMBytes / dense.DRAMBytes
	if byteRatio > 0.75 {
		t.Fatalf("pruned byte ratio %v, want ~0.63", byteRatio)
	}
	slowdown := pruned.Cycles / dense.Cycles
	if slowdown < 1.15 || slowdown > 1.9 {
		t.Fatalf("pruned slowdown %v, want ~1.3-1.6 (the paper's -35%%)", slowdown)
	}
}

func TestPrunedSgemvDensityClamped(t *testing.T) {
	b := builder()
	if k := b.PrunedSgemv(64, -1); k.FLOPs != 0 {
		t.Fatal("negative density not clamped")
	}
	full := b.PrunedSgemv(64, 1)
	over := b.PrunedSgemv(64, 2)
	if full.FLOPs != over.FLOPs {
		t.Fatal("density > 1 not clamped")
	}
}

func TestLstmEWScalesWithTissue(t *testing.T) {
	b := builder()
	k1 := b.EW(256, 1)
	k4 := b.EW(256, 4)
	if k4.FLOPs != 4*k1.FLOPs {
		t.Fatalf("EW FLOPs not linear in tissue size")
	}
}

func TestLstmEWPartial(t *testing.T) {
	b := builder()
	full := b.EW(256, 1)
	quarter := b.EWPartial(256, 1, 1)
	if quarter.FLOPs*4 != full.FLOPs {
		t.Fatalf("partial EW: %v vs full %v", quarter.FLOPs, full.FLOPs)
	}
}

func TestDRSKernelCheap(t *testing.T) {
	// The threshold scan must be negligible next to the gemv it gates.
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	b := builder()
	drs := sim.Run([]gpu.KernelSpec{b.DRS(650, 300)})
	gemv := sim.Run([]gpu.KernelSpec{b.SgemvUfic(650, 0, DRSHardware)})
	if drs.Cycles > 0.15*gemv.Cycles {
		t.Fatalf("DRS kernel %v cycles vs gemv %v — too expensive", drs.Cycles, gemv.Cycles)
	}
}

func TestRelevanceAndPredictOverheadSmall(t *testing.T) {
	// §VI-F: inter-cell runtime operations cost ~2% of the layer.
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	b := builder()
	h, n := 650, 200
	layer := []gpu.KernelSpec{b.SgemmWx(h, h, n)}
	for i := 0; i < n; i++ {
		layer = append(layer, b.SgemvU(h), b.EW(h, 1))
	}
	base := sim.Run(layer)
	over := sim.Run([]gpu.KernelSpec{b.Relevance(h, n), b.Predict(h, 20)})
	if frac := over.Cycles / base.Cycles; frac > 0.05 {
		t.Fatalf("inter-cell overhead fraction %v, want < 5%%", frac)
	}
}

func TestSgemmWxComputeBound(t *testing.T) {
	// The per-layer Sgemm has N-fold weight reuse: it must not be
	// DRAM-bound (that is the whole reason cuDNN batches it).
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	_, krs := sim.RunResults([]gpu.KernelSpec{builder().SgemmWx(650, 650, 200)})
	k := krs[0]
	if k.DRAMCycles > k.ComputeCycles {
		t.Fatalf("Sgemm DRAM-bound: dram %v vs compute %v", k.DRAMCycles, k.ComputeCycles)
	}
}

func TestEngineBuildDominatesInstall(t *testing.T) {
	// The cold/warm gap the fleet's engine cache exists to exploit: a
	// cold build (JIT the kernel-variant family + weight upload) must
	// cost far more than adopting a peer's warm artifact (unpack +
	// upload only) — otherwise pre-warm propagation would be pointless.
	sim := gpu.NewSimulator(gpu.TegraX1())
	b := builder()
	cold := sim.Run(b.EngineBuild(256, 3)).Seconds
	warm := sim.Run(b.EngineInstall(256, 3)).Seconds
	if cold <= 0 || warm <= 0 {
		t.Fatalf("non-positive costs: cold %v warm %v", cold, warm)
	}
	if cold < 10*warm {
		t.Fatalf("cold build %.3fs not >> warm install %.3fs", cold, warm)
	}
}

func TestEngineCostsScaleWithModel(t *testing.T) {
	// The upload term tracks the weight footprint, so bigger models
	// must cost strictly more to materialize on both paths.
	sim := gpu.NewSimulator(gpu.TegraX1())
	b := builder()
	smallB := sim.Run(b.EngineBuild(128, 1)).Seconds
	bigB := sim.Run(b.EngineBuild(650, 3)).Seconds
	if bigB <= smallB {
		t.Fatalf("build cost not monotone: h=128/L=1 %.4fs vs h=650/L=3 %.4fs", smallB, bigB)
	}
	smallI := sim.Run(b.EngineInstall(128, 1)).Seconds
	bigI := sim.Run(b.EngineInstall(650, 3)).Seconds
	if bigI <= smallI {
		t.Fatalf("install cost not monotone: %.4fs vs %.4fs", smallI, bigI)
	}
}

// The GRU rows are the LSTM rows at Gates=3.

func TestGRUUnitedSmallerThanLSTM(t *testing.T) {
	lstm := builder().SgemvU(512)
	gru := gruBuilder().SgemvU(512)
	// 3 gates vs 4: the GRU united matrix is 25% smaller.
	ratio := gru.DRAMBytes / lstm.DRAMBytes
	if ratio < 0.72 || ratio > 0.78 {
		t.Fatalf("GRU/LSTM traffic ratio %v, want ~0.75", ratio)
	}
}

func TestGRUSgemvDRAMBound(t *testing.T) {
	sim := gpu.NewSimulator(gpu.TegraX1())
	_, krs := sim.RunResults([]gpu.KernelSpec{gruBuilder().SgemvU(512)})
	if krs[0].DRAMUtil < 0.9 {
		t.Fatalf("GRU Sgemv DRAM util %v", krs[0].DRAMUtil)
	}
}

func TestGRUTissueReconfigures(t *testing.T) {
	b := gruBuilder()
	reconfAt := 0
	for tt := 1; tt <= 12; tt++ {
		if _, re := b.SgemmTissue(512, tt); re {
			reconfAt = tt
			break
		}
	}
	if reconfAt < 4 || reconfAt > 8 {
		t.Fatalf("GRU MTS neighbourhood: reconfig at %d", reconfAt)
	}
}

func TestGRUDRSHardwareBeatsSoftware(t *testing.T) {
	sim := gpu.NewSimulator(gpu.TegraX1())
	b := gruBuilder()
	h := 512
	skip := h / 2
	hw := sim.Run([]gpu.KernelSpec{b.SgemvUfic(h, skip, DRSHardware)})
	sw := sim.Run([]gpu.KernelSpec{b.SgemvUfic(h, skip, DRSSoftware)})
	dense := sim.Run([]gpu.KernelSpec{b.SgemvUfic(h, 0, DRSHardware)})
	if !(hw.Cycles < sw.Cycles && hw.Cycles < dense.Cycles) {
		t.Fatalf("GRU DRS ordering: hw %v sw %v dense %v", hw.Cycles, sw.Cycles, dense.Cycles)
	}
}

func TestGRUDRSFlowBeatsBaselinePerCell(t *testing.T) {
	// The split flow (U_{z,r} then skipped U_h) must beat the united
	// per-cell gemv when half the candidate rows are trivial.
	sim := gpu.NewSimulator(gpu.TegraX1())
	b := gruBuilder()
	h := 650
	base := sim.Run([]gpu.KernelSpec{b.SgemvU(h), b.EW(h, 1)})
	drs := sim.Run([]gpu.KernelSpec{
		b.SgemvUo(h), b.EWPartial(h, 1, 2), b.DRS(h, h/2),
		b.SgemvUfic(h, h/2, DRSHardware), b.EWPartial(h, 1, 1),
	})
	if drs.Cycles >= base.Cycles {
		t.Fatalf("GRU DRS flow slower: %v vs %v", drs.Cycles, base.Cycles)
	}
	// But the ceiling is lower than LSTM DRS (only a third of the matrix
	// is skippable).
	if base.Cycles/drs.Cycles > 1.5 {
		t.Fatalf("GRU DRS gain %v implausibly high", base.Cycles/drs.Cycles)
	}
}

func TestGRUSkipClamps(t *testing.T) {
	b := gruBuilder()
	if k := b.SgemvUfic(64, 1000, DRSHardware); k.FLOPs != 0 {
		t.Fatal("over-skip not clamped")
	}
	if k := b.SgemvUfic(64, -2, DRSHardware); k.FLOPs != b.SgemvUfic(64, 0, DRSHardware).FLOPs {
		t.Fatal("negative skip not clamped")
	}
}
