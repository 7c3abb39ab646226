package gpu

import (
	"math"
	"testing"
)

func TestTegraX1Config(t *testing.T) {
	cfg := TegraX1()
	if cfg.Cores() != 256 {
		t.Fatalf("cores = %d, want 256 (Table I)", cfg.Cores())
	}
	if cfg.DRAMBandwidth != 25.6e9 {
		t.Fatalf("DRAM BW = %v, want 25.6 GB/s (Table I)", cfg.DRAMBandwidth)
	}
	if bpc := cfg.DRAMBytesPerCycle(); math.Abs(bpc-25.6e9/998e6) > 1e-9 {
		t.Fatalf("bytes/cycle = %v", bpc)
	}
	if s := cfg.CyclesToSeconds(998e6); math.Abs(s-1) > 1e-9 {
		t.Fatalf("998M cycles = %v s, want 1", s)
	}
}

func TestComputeBoundKernel(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	k := KernelSpec{Name: "flops", FLOPs: 512e6} // 1e6 cycles of compute
	res := sim.Run([]KernelSpec{k})
	wantCompute := 512e6 / (256 * 2)
	if math.Abs(res.Cycles-(wantCompute+cfg.KernelLaunchCycles)) > 1 {
		t.Fatalf("cycles = %v, want %v", res.Cycles, wantCompute+cfg.KernelLaunchCycles)
	}
}

func TestMemoryBoundKernelStallAttribution(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	// Pure DRAM streaming: stall must be attributed to off-chip memory.
	k := KernelSpec{Name: "stream", DRAMBytes: 25.6e9 / 998e6 * 1e6} // 1e6 cycles of DRAM
	res := sim.Run([]KernelSpec{k})
	fr := res.StallFractionsOf("stream")
	if fr[StallOffChip] < 0.99 {
		t.Fatalf("off-chip stall fraction = %v, want ~1", fr[StallOffChip])
	}
}

func TestSharedBoundKernel(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	k := KernelSpec{Name: "smem", SharedBytes: cfg.SharedBytesPerCycle() * 1e6}
	_, krs := sim.RunResults([]KernelSpec{k})
	if math.Abs(krs[0].SharedCycles-1e6) > 1 {
		t.Fatalf("shared cycles = %v", krs[0].SharedCycles)
	}
	if krs[0].Stalls[StallOnChip] < 0.99e6 {
		t.Fatalf("on-chip stall = %v", krs[0].Stalls[StallOnChip])
	}
}

func TestOverlapTakesMax(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	// Compute and DRAM both 1e6 cycles: the window is 1e6, not 2e6.
	k := KernelSpec{
		Name:      "both",
		FLOPs:     512e6,
		DRAMBytes: cfg.DRAMBytesPerCycle() * 1e6,
	}
	res := sim.Run([]KernelSpec{k})
	if res.Cycles > 1e6+cfg.KernelLaunchCycles+1 {
		t.Fatalf("no overlap: %v cycles", res.Cycles)
	}
}

func TestComputeScaleAndDRAMDerating(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	base := KernelSpec{Name: "k", FLOPs: 512e6}
	scaled := base
	scaled.ComputeScale = 2
	r1 := sim.Run([]KernelSpec{base})
	r2 := sim.Run([]KernelSpec{scaled})
	if r2.Cycles-cfg.KernelLaunchCycles < 1.99*(r1.Cycles-cfg.KernelLaunchCycles) {
		t.Fatalf("ComputeScale ignored: %v vs %v", r2.Cycles, r1.Cycles)
	}
	mem := KernelSpec{Name: "m", DRAMBytes: cfg.DRAMBytesPerCycle() * 1e6}
	derated := mem
	derated.EffectiveDRAMFrac = 0.5
	r3 := sim.Run([]KernelSpec{mem})
	r4 := sim.Run([]KernelSpec{derated})
	if r4.Cycles-cfg.KernelLaunchCycles < 1.99*(r3.Cycles-cfg.KernelLaunchCycles) {
		t.Fatalf("EffectiveDRAMFrac ignored: %v vs %v", r4.Cycles, r3.Cycles)
	}
}

func TestBarrierAndExtraCycles(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	k := KernelSpec{Name: "b", Barriers: 3, ExtraCycles: 500, HostCycles: 250}
	res := sim.Run([]KernelSpec{k})
	want := 3*cfg.BarrierCycles + 500 + 250 + cfg.KernelLaunchCycles
	if math.Abs(res.Cycles-want) > 0.5 {
		t.Fatalf("cycles = %v, want %v", res.Cycles, want)
	}
}

func TestGroupsAggregation(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	ks := []KernelSpec{
		{Name: "a", FLOPs: 512e6, DRAMBytes: 100},
		{Name: "a", FLOPs: 512e6, DRAMBytes: 100},
		{Name: "b", FLOPs: 512e3},
	}
	res := sim.Run(ks)
	ga := res.Group("a")
	if ga == nil || ga.Launches != 2 {
		t.Fatalf("group a: %+v", ga)
	}
	if ga.DRAMBytes != 200 {
		t.Fatalf("group a DRAM bytes = %v", ga.DRAMBytes)
	}
	if res.Group("missing") != nil {
		t.Fatal("nonexistent group returned")
	}
	groups := res.Groups()
	if len(groups) != 2 || groups[0].Name != "a" {
		t.Fatalf("groups order: %+v", groups)
	}
	if res.Launches != 3 {
		t.Fatalf("launches = %d", res.Launches)
	}
}

func TestCycleShareSumsToOne(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	res := sim.Run([]KernelSpec{
		{Name: "a", FLOPs: 512e6},
		{Name: "b", DRAMBytes: 1 << 20},
	})
	s := res.CycleShareOf("a") + res.CycleShareOf("b")
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("cycle shares sum to %v", s)
	}
}

func TestStallFractionsSumToOne(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	res := sim.Run([]KernelSpec{{Name: "m", DRAMBytes: 1 << 20, Barriers: 2}})
	var s float64
	for _, f := range res.StallFractions() {
		s += f
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("stall fractions sum to %v", s)
	}
}

func TestStallCauseStrings(t *testing.T) {
	for c := StallCause(0); c < numStallCauses; c++ {
		if c.String() == "unknown" {
			t.Fatalf("cause %d unnamed", c)
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := TegraX1()
	sim := NewSimulator(cfg)
	_, krs := sim.RunResults([]KernelSpec{
		{Name: "m", DRAMBytes: 10 << 20, SharedBytes: 1 << 20, FLOPs: 1e6},
	})
	k := krs[0]
	if k.DRAMUtil <= 0 || k.DRAMUtil > 1 {
		t.Fatalf("DRAM util %v", k.DRAMUtil)
	}
	if k.SharedUtil <= 0 || k.SharedUtil > 1 {
		t.Fatalf("shared util %v", k.SharedUtil)
	}
	if k.SharedUtil >= k.DRAMUtil {
		t.Fatal("DRAM-bound kernel should have DRAM util above shared util")
	}
}
