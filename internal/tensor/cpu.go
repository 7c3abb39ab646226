package tensor

import "strings"

// CPUInfo reports the vector capabilities the kernel dispatch cares
// about, as detected at process start. bench tooling records it next to
// the active chain so cross-box trajectories stay comparable.
type CPUInfo struct {
	SSE2    bool // amd64 baseline; false only off amd64
	AVX     bool // CPUID.1:ECX.AVX
	FMA     bool // CPUID.1:ECX.FMA (VFMADD231PS et al.)
	AVX2    bool // CPUID.7.0:EBX.AVX2
	OSYMM   bool // OS saves YMM state (OSXSAVE + XCR0[2:1] == 11b)
	AVX512F bool // CPUID.7.0:EBX.AVX512F
	OSZMM   bool // OS also saves opmask + ZMM state (XCR0 & 0xE6 == 0xE6)
}

// CPU returns the detected feature set of this machine.
func CPU() CPUInfo { return cpuFeatures }

// String renders the detected features as a stable "+"-joined list
// ("sse2+avx+fma+avx2+osymm+avx512f+oszmm"), or "none" when nothing is
// detected.
func (c CPUInfo) String() string {
	var parts []string
	if c.SSE2 {
		parts = append(parts, "sse2")
	}
	if c.AVX {
		parts = append(parts, "avx")
	}
	if c.FMA {
		parts = append(parts, "fma")
	}
	if c.AVX2 {
		parts = append(parts, "avx2")
	}
	if c.OSYMM {
		parts = append(parts, "osymm")
	}
	if c.AVX512F {
		parts = append(parts, "avx512f")
	}
	if c.OSZMM {
		parts = append(parts, "oszmm")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// HasAVX2FMA reports whether the AVX2+FMA wide-chain body is usable on
// this machine. When false, ChainAVX2 still selects the wide chain —
// it just runs through the pure-Go twin (dotRowWideGeneric), so forced
// wide-chain CI runs exercise the same contracts on any runner.
func HasAVX2FMA() bool { return hasWideBody }
