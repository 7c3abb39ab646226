package gpu

import "testing"

func TestPlatformsSane(t *testing.T) {
	for _, cfg := range Platforms() {
		if cfg.Name == "" {
			t.Fatal("unnamed platform")
		}
		if cfg.Cores() <= 0 || cfg.ClockHz <= 0 || cfg.DRAMBandwidth <= 0 {
			t.Fatalf("%s: degenerate config", cfg.Name)
		}
		if cfg.L2Bytes < cfg.L2LineBytes*int64(cfg.L2Ways) {
			t.Fatalf("%s: L2 smaller than one set", cfg.Name)
		}
		if cfg.MaxThreadsPerSM%cfg.WarpSize != 0 {
			t.Fatalf("%s: thread slots not warp-aligned", cfg.Name)
		}
	}
}

func TestPlatformGenerationOrdering(t *testing.T) {
	k1, x1, x2 := TegraK1(), TegraX1(), TegraX2()
	if !(k1.DRAMBandwidth < x1.DRAMBandwidth && x1.DRAMBandwidth < x2.DRAMBandwidth) {
		t.Fatal("DRAM bandwidth should grow across generations")
	}
	// Peak single-precision rate: one FMA (2 FLOPs) per core per cycle.
	peak := func(c Config) float64 { return float64(c.Cores()) * 2 * c.ClockHz }
	if !(peak(k1) < peak(x1) && peak(x1) < peak(x2)) {
		t.Fatal("compute should grow across generations")
	}
}

func TestTegraX1MatchesTableI(t *testing.T) {
	cfg := TegraX1()
	if cfg.Cores() != 256 || cfg.ClockHz != 998e6 || cfg.DRAMBandwidth != 25.6e9 {
		t.Fatalf("Table I mismatch: %+v", cfg)
	}
}
