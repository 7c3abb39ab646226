package gpu

// StallCause labels a contributor to GPU pipeline stall cycles, matching
// the categories of the paper's Fig. 4.
type StallCause int

const (
	// StallOffChip is time the pipeline waits on off-chip (DRAM) memory.
	StallOffChip StallCause = iota
	// StallOnChip is time the pipeline waits on shared-memory bandwidth.
	StallOnChip
	// StallBarrier is time spent in CTA barrier synchronization.
	StallBarrier
	// StallLaunch is kernel launch / grid-management overhead.
	StallLaunch
	// StallOther is everything else (scoreboard, issue, ALU latency).
	StallOther

	numStallCauses
)

// String returns the Fig. 4 legend name of the cause.
func (s StallCause) String() string {
	switch s {
	case StallOffChip:
		return "off-chip memory"
	case StallOnChip:
		return "on-chip memory"
	case StallBarrier:
		return "barrier sync"
	case StallLaunch:
		return "kernel launch"
	case StallOther:
		return "other"
	default:
		return "unknown"
	}
}

// KernelSpec is the cost descriptor of one GPU kernel launch, produced by
// the internal/kernels package. The simulator turns it into cycles,
// traffic and stall attribution.
type KernelSpec struct {
	// Name tags the kernel for per-kernel aggregation ("sgemv_u",
	// "sgemm_wx", "lstm_ew", "drs", ...).
	Name string

	// FLOPs is the arithmetic work retired by the kernel.
	FLOPs float64
	// DRAMBytes is the off-chip traffic (L2 misses) the kernel generates.
	DRAMBytes float64
	// L2HitBytes is the on-chip L2 traffic served without DRAM access.
	L2HitBytes float64
	// SharedBytes is the shared-memory (scratchpad) traffic.
	SharedBytes float64

	// Threads is the number of software threads launched.
	Threads int
	// Barriers is the number of CTA-wide barrier waits on the critical
	// path.
	Barriers int

	// ComputeScale multiplies the ideal compute time; >1 models
	// inefficiency such as branch divergence (software DRS) or the
	// reduced register tiling of a reconfigured kernel (fat tissues).
	ComputeScale float64
	// EffectiveDRAMFrac derates the usable off-chip bandwidth; <1 models
	// un-coalesced access patterns such as CSR gather in the
	// zero-pruning baseline.
	EffectiveDRAMFrac float64

	// ExtraCycles is a fixed serial cost charged on top of the roofline
	// time (e.g. the CRM compaction pipeline, host-side list transfers).
	ExtraCycles float64

	// HostCycles is CPU-side work attributed to this kernel (threshold
	// bookkeeping, breakpoint search) in GPU-clock cycles; it extends
	// wall time but not GPU activity.
	HostCycles float64
}

// KernelResult is the simulated outcome of one kernel launch.
type KernelResult struct {
	Spec   KernelSpec
	Cycles float64
	// ComputeCycles is the ideal arithmetic time (after ComputeScale).
	ComputeCycles float64
	// DRAMCycles and SharedCycles are the roofline times of the two
	// memory resources.
	DRAMCycles   float64
	SharedCycles float64
	// Stalls attributes non-compute cycles to causes; the entries sum to
	// Cycles - ComputeCycles (clamped at 0).
	Stalls [numStallCauses]float64
	// DRAMUtil and SharedUtil are achieved/peak bandwidth ratios over the
	// kernel's execution window (Fig. 6 / Fig. 9 metrics).
	DRAMUtil   float64
	SharedUtil float64
}

// simulateKernel resolves one kernel against the platform rooflines.
//
// The timing model: the kernel's execution window is the maximum of its
// compute time, its DRAM roofline time and its shared-memory roofline time
// (the GPU overlaps them), plus serial costs (launch, barriers, extra
// pipeline stages, host work). Stall cycles — everything beyond ideal
// compute — are attributed proportionally to how far each memory resource
// extends past compute, which mirrors how profilers attribute issue-stall
// reasons.
func simulateKernel(cfg Config, k KernelSpec) KernelResult {
	cs := k.ComputeScale
	if cs <= 0 {
		cs = 1
	}
	df := k.EffectiveDRAMFrac
	if df <= 0 || df > 1 {
		df = 1
	}

	compute := k.FLOPs / (float64(cfg.Cores()) * 2) * cs
	dram := k.DRAMBytes / (cfg.DRAMBytesPerCycle() * df)
	shared := k.SharedBytes / cfg.SharedBytesPerCycle()

	window := compute
	if dram > window {
		window = dram
	}
	if shared > window {
		window = shared
	}

	launch := cfg.KernelLaunchCycles
	barrier := float64(k.Barriers) * cfg.BarrierCycles
	total := window + launch + barrier + k.ExtraCycles + k.HostCycles

	r := KernelResult{
		Spec:          k,
		Cycles:        total,
		ComputeCycles: compute,
		DRAMCycles:    dram,
		SharedCycles:  shared,
	}

	// Attribute the stall cycles.
	memStall := window - compute
	if memStall > 0 {
		dOver := dram - compute
		if dOver < 0 {
			dOver = 0
		}
		sOver := shared - compute
		if sOver < 0 {
			sOver = 0
		}
		den := dOver + sOver
		if den > 0 {
			r.Stalls[StallOffChip] = memStall * dOver / den
			r.Stalls[StallOnChip] = memStall * sOver / den
		}
	}
	r.Stalls[StallBarrier] = barrier
	r.Stalls[StallLaunch] = launch
	r.Stalls[StallOther] = k.ExtraCycles + k.HostCycles

	if total > 0 {
		r.DRAMUtil = dram / total
		r.SharedUtil = shared / total
	}
	return r
}
