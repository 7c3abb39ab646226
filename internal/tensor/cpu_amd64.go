//go:build amd64

package tensor

// Stdlib-only CPUID probe for the assembly bodies. The wide chain needs
// AVX2 and FMA instructions, the canonical chain's AVX one-input body
// AVX, and both need OS-saved YMM state: a kernel that does not
// context-switch the upper register halves (XCR0 bits 1-2 clear) would
// silently corrupt them, so the probe checks OSXSAVE + XGETBV exactly
// like runtime·cpuinit does. The canonical chain's AVX-512 bodies (the
// one-input body and the block body) need AVX-512F and, by the same
// argument, OS-saved opmask and ZMM state (XCR0 bits 5-7).
// golang.org/x/sys/cpu is the usual home for this; the repo is
// stdlib-only, and the probe is four CPUID leaves.

// cpuid and xgetbv0 are implemented in cpu_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// cpuFeatures is filled once at init; all later reads are immutable.
var cpuFeatures = probeCPU()

func probeCPU() CPUInfo {
	var info CPUInfo
	info.SSE2 = true // amd64 baseline
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return info
	}
	_, _, ecx1, _ := cpuid(1, 0)
	info.FMA = ecx1&(1<<12) != 0
	osxsave := ecx1&(1<<27) != 0
	info.AVX = ecx1&(1<<28) != 0
	if osxsave {
		xcr0, _ := xgetbv0()
		info.OSYMM = xcr0&0x6 == 0x6   // XMM + YMM state saved
		info.OSZMM = xcr0&0xE6 == 0xE6 // ... and opmask, ZMM0-15 upper halves, ZMM16-31
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		info.AVX2 = ebx7&(1<<5) != 0
		info.AVX512F = ebx7&(1<<16) != 0
	}
	return info
}

// hasWideBody reports whether the AVX2+FMA assembly body is usable on
// this CPU. ChainAVX2 binds the pure-Go wide body otherwise (rowBody).
var hasWideBody = cpuFeatures.AVX && cpuFeatures.AVX2 && cpuFeatures.FMA && cpuFeatures.OSYMM

// hasQuadBody reports whether the canonical chain's AVX one-input body
// is usable on this CPU: 256-bit VMULPS/VADDPS need AVX and OS-saved
// YMM state, nothing more. ChainSSE2 binds it only where hasBlockBody
// is false, and the pure-Go four-row spans, one row-body call per row,
// where neither holds (quadBody).
var hasQuadBody = cpuFeatures.AVX && cpuFeatures.OSYMM

// hasBlockBody reports whether the canonical chain's AVX-512 bodies —
// the one-input body and the block body, each one body for a row range
// and a kept-row list — are usable on this CPU: 512-bit VMULPS/VADDPS
// and the ZMM16-31 accumulators need AVX-512F and OS-saved opmask and
// ZMM state. Otherwise the one-input spans run the AVX body where
// hasQuadBody holds (quadBody), and a block span, over a range or a
// list, is one one-input span per present input (blockRows, blockBody).
// Tests clear it to reach those paths.
var hasBlockBody = cpuFeatures.AVX512F && cpuFeatures.OSZMM

// hasActBody reports whether SigmoidVec/TanhVec may run their AVX2+FMA
// body (act_amd64.s): the same instructions as the wide chain's. Tests
// clear it to reach the scalar loop.
var hasActBody = hasWideBody
