package kernels_test

import (
	"math"
	"testing"

	"mobilstm/internal/gpu"
	"mobilstm/internal/kernels"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
)

// TestRequestBatchRaggedMsIsRunsBits pins the closed-form window price
// the serving loop charges to the simulation it replaces: over PTB, MR
// and BABI at their Table II shapes on every built-in platform, for
// random ragged windows of one to eight requests (lengths up to the
// benchmark's own, and a uniform window at it), RequestBatchRaggedMs
// must be bit for bit Simulator.Run(RequestBatchRagged(...)).Seconds·1e3,
// and a uniform window's the batch-B RequestBatch sequence's. It
// allocates nothing.
func TestRequestBatchRaggedMsIsRunsBits(t *testing.T) {
	r := rng.New(0x7a6)
	for _, name := range []string{"PTB", "MR", "BABI"} {
		bench, ok := model.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		h, layers, length := bench.Hidden, bench.Layers, bench.Length
		for _, cfg := range gpu.Platforms() {
			kb, sim := kernels.NewBuilder(cfg), gpu.NewSimulator(cfg)
			for trial := range 100 {
				lens := make([]int, 1+r.Intn(8))
				for i := range lens {
					lens[i] = 1 + r.Intn(length)
					if trial%10 == 0 {
						lens[i] = length
					}
				}
				got := kb.RequestBatchRaggedMs(sim, h, layers, lens)
				want := sim.Run(kb.RequestBatchRagged(h, layers, lens)).Seconds * 1e3
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s on %s, lengths %v: %v ms, the simulated sequence %v", name, cfg.Name, lens, got, want)
				}
				if trial%10 == 0 {
					uniform := sim.Run(kb.RequestBatch(h, length, layers, len(lens))).Seconds * 1e3
					if math.Float64bits(got) != math.Float64bits(uniform) {
						t.Fatalf("%s on %s, %d × %d: %v ms, RequestBatch %v", name, cfg.Name, len(lens), length, got, uniform)
					}
				}
			}
			lens := []int{length, length / 2, 1, length}
			if a := testing.AllocsPerRun(20, func() { kb.RequestBatchRaggedMs(sim, h, layers, lens) }); a != 0 {
				t.Fatalf("%s on %s: %v allocations per window", name, cfg.Name, a)
			}
		}
	}
}
