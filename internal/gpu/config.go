// Package gpu models the mobile GPU the paper evaluates on (NVIDIA Jetson
// TX1, Table I): an analytic, kernel-granularity timing model backed by a
// set-associative L2 cache simulator and DRAM / shared-memory bandwidth
// rooflines.
//
// The paper's results are memory-system effects — redundant DRAM re-loads
// of the united weight matrix across LSTM cells, shared-memory bandwidth
// saturation that bounds the tissue size, and warp divergence under row
// skipping. The model resolves exactly those resources per kernel and
// attributes pipeline stall cycles to their causes, reproducing the
// paper's Fig. 4 (stall breakdown), Fig. 6 (bandwidth utilization) and
// Fig. 9 (maximum tissue size) measurement methodology.
package gpu

// Config describes a mobile GPU platform. The fields mirror the resources
// the paper's analysis depends on; see TegraX1 for the values of Table I.
type Config struct {
	// Name identifies the platform in reports.
	Name string

	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoresPerSM is the number of CUDA cores per SM.
	CoresPerSM int
	// ClockHz is the GPU core clock in Hertz.
	ClockHz float64

	// DRAMBandwidth is the peak off-chip memory bandwidth in bytes/second
	// (shared with the CPU on a mobile SoC).
	DRAMBandwidth float64
	// L2Bytes is the capacity of the last-level on-chip cache.
	L2Bytes int64
	// L2LineBytes is the cache line size.
	L2LineBytes int64
	// L2Ways is the L2 associativity.
	L2Ways int

	// SharedBytesPerSM is the shared-memory (on-chip scratchpad) capacity
	// per SM.
	SharedBytesPerSM int64
	// SharedBWBytesPerCycle is the shared-memory bandwidth per SM in
	// bytes per core clock cycle.
	SharedBWBytesPerCycle float64

	// WarpSize is the SIMT width; CTA sizes are multiples of it.
	WarpSize int
	// MaxThreadsPerSM bounds occupancy.
	MaxThreadsPerSM int

	// KernelLaunchCycles is the fixed host+GMU cost of launching one
	// kernel, in core cycles. On a mobile part with the CPU driving the
	// GPU this is substantial relative to small kernels.
	KernelLaunchCycles float64

	// BarrierCycles is the cost of one CTA-wide barrier synchronization.
	BarrierCycles float64
}

// TegraX1 returns the Jetson TX1 configuration of Table I: a Maxwell GPU
// with 256 cores at 998 MHz and 4 GB LPDDR4 at 25.6 GB/s.
func TegraX1() Config {
	return Config{
		Name:                  "Tegra X1 (Maxwell, 256 cores @ 998 MHz, LPDDR4 25.6 GB/s)",
		SMs:                   2,
		CoresPerSM:            128,
		ClockHz:               998e6,
		DRAMBandwidth:         25.6e9,
		L2Bytes:               256 << 10,
		L2LineBytes:           64,
		L2Ways:                16,
		SharedBytesPerSM:      64 << 10,
		SharedBWBytesPerCycle: 64,
		WarpSize:              32,
		MaxThreadsPerSM:       2048,
		KernelLaunchCycles:    2000,
		BarrierCycles:         40,
	}
}

// TegraK1 returns the previous-generation Jetson TK1: a single Kepler SM
// with 192 cores at 852 MHz and DDR3L at 14.9 GB/s — less off-chip
// bandwidth and a narrower shared-memory port, so the MTS shifts.
func TegraK1() Config {
	return Config{
		Name:                  "Tegra K1 (Kepler, 192 cores @ 852 MHz, DDR3L 14.9 GB/s)",
		SMs:                   1,
		CoresPerSM:            192,
		ClockHz:               852e6,
		DRAMBandwidth:         14.9e9,
		L2Bytes:               128 << 10,
		L2LineBytes:           64,
		L2Ways:                16,
		SharedBytesPerSM:      48 << 10,
		SharedBWBytesPerCycle: 64,
		WarpSize:              32,
		MaxThreadsPerSM:       2048,
		KernelLaunchCycles:    2500,
		BarrierCycles:         48,
	}
}

// TegraX2 returns a Pascal-generation successor: 256 cores at 1.3 GHz
// with LPDDR4 at 59.7 GB/s — much more off-chip bandwidth relative to its
// shared-memory port, so tissues saturate on-chip earlier (smaller MTS).
func TegraX2() Config {
	return Config{
		Name:                  "Tegra X2 (Pascal, 256 cores @ 1300 MHz, LPDDR4 59.7 GB/s)",
		SMs:                   2,
		CoresPerSM:            128,
		ClockHz:               1300e6,
		DRAMBandwidth:         59.7e9,
		L2Bytes:               512 << 10,
		L2LineBytes:           64,
		L2Ways:                16,
		SharedBytesPerSM:      64 << 10,
		SharedBWBytesPerCycle: 64,
		WarpSize:              32,
		MaxThreadsPerSM:       2048,
		KernelLaunchCycles:    1800,
		BarrierCycles:         36,
	}
}

// Platforms returns the built-in platform configurations.
func Platforms() []Config {
	return []Config{TegraK1(), TegraX1(), TegraX2()}
}

// Cores returns the total CUDA core count.
func (c Config) Cores() int { return c.SMs * c.CoresPerSM }

// DRAMBytesPerCycle returns the off-chip bandwidth expressed in bytes per
// core clock cycle — the roofline denominator for memory-bound kernels.
func (c Config) DRAMBytesPerCycle() float64 {
	return c.DRAMBandwidth / c.ClockHz
}

// SharedBytesPerCycle returns the aggregate shared-memory bandwidth across
// all SMs in bytes per cycle.
func (c Config) SharedBytesPerCycle() float64 {
	return c.SharedBWBytesPerCycle * float64(c.SMs)
}

// CyclesToSeconds converts core cycles to wall-clock seconds.
func (c Config) CyclesToSeconds(cycles float64) float64 {
	return cycles / c.ClockHz
}
