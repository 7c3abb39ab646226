package sched

import (
	"mobilstm/internal/gpu"
	"mobilstm/internal/kernels"
	"mobilstm/internal/tensor"
)

// Server-class execution (§II-C): on a large GPU with enough on-chip
// storage for several layers' weights (the paper's Tesla M40 example),
// cells from different layers run in parallel along the wavefront — the
// cell at (layer j, timestamp t+1) overlaps the cell at (layer j+1,
// timestamp t). Mobile GPUs cannot hold multiple layers' weights, which
// is why the paper's layer-sequential baseline (and this repository's
// optimizations) exist.
//
// WavefrontCycles models that upper bound: per wavefront step, all
// eligible layers' per-cell kernels run concurrently, bounded by the
// platform's aggregate resources; the weight matrices of all layers are
// assumed resident (no per-cell re-load) when their combined footprint
// fits the given on-chip budget, which is the regime the paper describes
// for server GPUs.

// TeslaM40 returns the server GPU the paper contrasts with (Table
// §II-C): 3072 cores at 1114 MHz, GDDR5 at 288 GB/s, 3 MB L2 and 24
// SMs — enough on-chip storage to keep several layers' LSTM weights
// resident.
func TeslaM40() gpu.Config {
	return gpu.Config{
		Name:                  "Tesla M40 (Maxwell, 3072 cores @ 1114 MHz, GDDR5 288 GB/s)",
		SMs:                   24,
		CoresPerSM:            128,
		ClockHz:               1114e6,
		DRAMBandwidth:         288e9,
		L2Bytes:               3 << 20,
		L2LineBytes:           64,
		L2Ways:                16,
		SharedBytesPerSM:      96 << 10,
		SharedBWBytesPerCycle: 64,
		WarpSize:              32,
		MaxThreadsPerSM:       2048,
		KernelLaunchCycles:    1500,
		BarrierCycles:         32,
	}
}

// WavefrontPlan describes a server-style pipelined execution.
type WavefrontPlan struct {
	Cfg                           gpu.Config
	Hidden, Input, Length, Layers int
	// ResidentBudgetBytes is the on-chip storage available for keeping
	// recurrent weights resident across cells (the persistent-RNN
	// regime). Layers whose united U fits within the remaining budget
	// skip the per-cell DRAM re-load.
	ResidentBudgetBytes int64
}

// WavefrontResult summarizes the pipelined execution.
type WavefrontResult struct {
	Cycles  float64
	Seconds float64
	// ResidentLayers is how many layers' weights stayed on chip.
	ResidentLayers int
	// Steps is the number of wavefront steps (length + layers - 1).
	Steps int
}

// Wavefront simulates the layer-pipelined execution. Each wavefront step
// runs one cell of every eligible layer concurrently; the step's cost is
// the maximum single-cell cost among them plus launch overhead amortized
// across the concurrent launches (the server GPU issues them to disjoint
// SMs). Cells of a resident layer cost only their compute and on-chip
// traffic; non-resident layers stream U from DRAM, sharing bandwidth.
func Wavefront(p WavefrontPlan) WavefrontResult {
	if p.Hidden < 1 || p.Length < 1 || p.Layers < 1 {
		tensor.Panicf("sched: invalid wavefront plan %+v", p)
	}
	kb := kernels.NewBuilder(p.Cfg)
	sim := gpu.NewSimulator(p.Cfg)

	uBytes := int64(16 * p.Hidden * p.Hidden)
	resident := int(p.ResidentBudgetBytes / uBytes)
	if resident > p.Layers {
		resident = p.Layers
	}
	if resident < 0 {
		resident = 0
	}

	// Per-cell cost for a resident layer: the gemv runs from on-chip
	// storage (shared/L2), no DRAM streaming.
	residentSpec := kb.SgemvU(p.Hidden)
	residentSpec.L2HitBytes += residentSpec.DRAMBytes
	residentSpec.DRAMBytes = 0
	streamSpec := kb.SgemvU(p.Hidden)
	ew := kb.EW(p.Hidden, 1)

	// A wavefront step runs up to min(Layers, active) cells at once. The
	// DRAM-streaming cells share bandwidth: charge their combined DRAM
	// traffic against one window; compute runs on disjoint SMs, so the
	// compute window is a single cell's.
	steps := p.Length + p.Layers - 1
	var total float64
	for s := 0; s < steps; s++ {
		active := activeLayers(s, p.Length, p.Layers)
		streaming := active - resident
		if streaming < 0 {
			streaming = 0
		}
		step := gpu.KernelSpec{
			Name:        "wavefront_step",
			FLOPs:       streamSpec.FLOPs + ew.FLOPs, // per-SM-group critical path
			DRAMBytes:   float64(streaming) * streamSpec.DRAMBytes,
			SharedBytes: streamSpec.SharedBytes,
			L2HitBytes:  float64(minInt(active, resident)) * residentSpec.L2HitBytes,
			Barriers:    1,
		}
		res := sim.Run([]gpu.KernelSpec{step})
		total += res.Cycles
	}
	return WavefrontResult{
		Cycles:         total,
		Seconds:        p.Cfg.CyclesToSeconds(total),
		ResidentLayers: resident,
		Steps:          steps,
	}
}

// activeLayers counts the layers with a cell eligible at wavefront step s.
func activeLayers(s, length, layers int) int {
	n := 0
	for l := 0; l < layers; l++ {
		t := s - l
		if t >= 0 && t < length {
			n++
		}
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
