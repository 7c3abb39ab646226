package tensor

import (
	"math"
	"os"
	"reflect"
	"testing"

	"mobilstm/internal/rng"
)

// withChain runs fn with the process-default chain forced to c,
// restoring the previous default afterwards.
func withChain(t *testing.T, c KernelChain, fn func(t *testing.T)) {
	t.Helper()
	prev := ActiveKernelChain()
	SetKernelChain(c)
	defer SetKernelChain(prev)
	fn(t)
}

func TestKernelChainParseStringRoundTrip(t *testing.T) {
	for _, c := range []KernelChain{ChainAuto, ChainGeneric, ChainSSE2, ChainAVX2} {
		got, ok := ParseKernelChain(c.String())
		if !ok || got != c {
			t.Errorf("ParseKernelChain(%q) = %v, %v", c.String(), got, ok)
		}
	}
	for _, bad := range []string{"", "AVX2", "sse", "avx512", "fast"} {
		if _, ok := ParseKernelChain(bad); ok {
			t.Errorf("ParseKernelChain(%q) unexpectedly ok", bad)
		}
	}
}

func TestSetKernelChainResolution(t *testing.T) {
	prev := ActiveKernelChain()
	defer SetKernelChain(prev)
	if got := SetKernelChain(ChainAuto); got != ChainSSE2 {
		t.Fatalf("SetKernelChain(auto) = %v, want sse2", got)
	}
	// Forcing the wide chain sticks even without AVX2 hardware — the
	// dispatch falls back to the pure-Go wide body, not to another
	// chain.
	if got := SetKernelChain(ChainAVX2); got != ChainAVX2 {
		t.Fatalf("SetKernelChain(avx2) = %v, want avx2", got)
	}
	if got := ActiveKernelChain(); got != ChainAVX2 {
		t.Fatalf("ActiveKernelChain = %v after forcing avx2", got)
	}
}

func TestChainFromEnv(t *testing.T) {
	cases := []struct {
		in   string
		want KernelChain
	}{
		{"", ChainSSE2},
		{"auto", ChainSSE2},
		{"generic", ChainGeneric},
		{"sse2", ChainSSE2},
		{"avx2", ChainAVX2},
		{"AVX2", ChainSSE2},    // case-sensitive: invalid, ignored
		{"quantum", ChainSSE2}, // invalid, ignored
	}
	for _, c := range cases {
		if got := chainFromEnv(c.in); got != c.want {
			t.Errorf("chainFromEnv(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// bodyName names a row, four-row or block body by identity (func
// values compare only through their code pointers), so the resolution
// tests assert on which body a binding runs rather than on output bits
// — the canonical bodies agree bitwise by construction, so bits cannot
// tell them apart. A table column that binds nothing is "none".
func bodyName(f any) string {
	fv := reflect.ValueOf(f)
	if fv.IsNil() {
		return "none"
	}
	for name, b := range map[string]any{
		"dotRowGeneric": dotRowGeneric, "dotRowSSE2": dotRowSSE2,
		"dotRowWideGeneric": dotRowWideGeneric, "dotRowAVX2": dotRowAVX2,
		"quadRows": quadRows, "gatherRows": gatherRows, "blockRows": blockRows,
		"quadSpanAVX": quadSpanAVX, "gatherAVX": gatherAVX,
		"quadSpanAVX512": quadSpanAVX512, "gatherAVX512": gatherAVX512, "blockSpanAVX512": blockSpanAVX512,
	} {
		if fv.Pointer() == reflect.ValueOf(b).Pointer() {
			return name
		}
	}
	return "unknown body"
}

// quadProbe is what the CPU reports for the AVX four-row body: AVX with
// OS-saved YMM state. The resolution tests derive their expectations
// from it rather than from hasQuadBody, so they check the probe too.
func quadProbe() bool { c := CPU(); return c.AVX && c.OSYMM }

// blockProbe is what the CPU reports for the AVX-512 bodies, one-input
// and block: AVX-512F with OS-saved opmask and ZMM state.
func blockProbe() bool { c := CPU(); return c.AVX512F && c.OSZMM }

// boundBodies names the four bodies a binding runs: row, the four-row
// span (a row range or a kept-row list), the gathered group and the
// block span.
func boundBodies(k Kernels) [4]string {
	return [4]string{bodyName(k.dot), bodyName(k.quad), bodyName(k.gather), bodyName(k.block)}
}

// withSpans is a binding's expected names: row body dot, and the
// assembly span bodies where quad and block say they are bound, the
// pure-Go spans otherwise. The one-input bodies are the AVX-512 ones
// where the block probe holds too, the AVX ones where it does not.
func withSpans(dot string, quad, block bool) [4]string {
	want := [4]string{dot, "quadRows", "gatherRows", "blockRows"}
	switch {
	case block:
		want[1], want[2], want[3] = "quadSpanAVX512", "gatherAVX512", "blockSpanAVX512"
	case quad:
		want[1], want[2] = "quadSpanAVX", "gatherAVX"
	}
	return want
}

// TestForcedGenericDisablesAssemblyBodies pins the resolution table:
// which row body carries each chain with and without the AVX2+FMA
// probe, which one-input bodies under the AVX and AVX-512 probes, which
// block body with and without the AVX-512 probe, and that
// a forced-generic process default (the CI reference configuration)
// leaves nothing but the pure-Go bodies — for explicit selections too,
// not only for ChainAuto.
func TestForcedGenericDisablesAssemblyBodies(t *testing.T) {
	for _, c := range []struct {
		chain     KernelChain
		asm, avx2 bool
		want      string
	}{
		{ChainGeneric, true, true, "dotRowGeneric"},
		{ChainGeneric, false, false, "dotRowGeneric"},
		{ChainSSE2, true, true, "dotRowSSE2"},
		{ChainSSE2, true, false, "dotRowSSE2"},
		{ChainSSE2, false, false, "dotRowGeneric"},
		{ChainAVX2, true, true, "dotRowAVX2"},
		{ChainAVX2, true, false, "dotRowWideGeneric"},
		{ChainAVX2, false, false, "dotRowWideGeneric"},
	} {
		if got := bodyName(rowBody(c.chain, c.asm, c.avx2)); got != c.want {
			t.Errorf("rowBody(%v, asm=%v, avx2=%v) = %s, want %s", c.chain, c.asm, c.avx2, got, c.want)
		}
	}
	for _, c := range []struct {
		chain       KernelChain
		avx, avx512 bool
		want        [2]string
	}{
		{ChainGeneric, true, true, [2]string{"none", "none"}},
		{ChainSSE2, true, true, [2]string{"quadSpanAVX512", "gatherAVX512"}},
		{ChainSSE2, false, true, [2]string{"quadSpanAVX512", "gatherAVX512"}},
		{ChainSSE2, true, false, [2]string{"quadSpanAVX", "gatherAVX"}},
		{ChainSSE2, false, false, [2]string{"none", "none"}},
		{ChainAVX2, true, true, [2]string{"none", "none"}},
	} {
		quad, gather := quadBody(c.chain, c.avx, c.avx512)
		if got := [2]string{bodyName(quad), bodyName(gather)}; got != c.want {
			t.Errorf("quadBody(%v, avx=%v, avx512=%v) = %s, want %s", c.chain, c.avx, c.avx512, got, c.want)
		}
	}
	for _, c := range []struct {
		chain  KernelChain
		avx512 bool
		want   string
	}{
		{ChainGeneric, true, "none"},
		{ChainSSE2, true, "blockSpanAVX512"},
		{ChainSSE2, false, "none"},
		{ChainAVX2, true, "none"},
	} {
		if got := bodyName(blockBody(c.chain, c.avx512)); got != c.want {
			t.Errorf("blockBody(%v, avx512=%v) = %s, want %s", c.chain, c.avx512, got, c.want)
		}
	}
	wide := "dotRowWideGeneric"
	if HasAVX2FMA() {
		wide = "dotRowAVX2"
	}
	canon := withSpans("dotRowSSE2", quadProbe(), blockProbe())
	generic := withSpans("dotRowGeneric", false, false)
	for _, c := range []struct {
		def, sel KernelChain
		want     [4]string
	}{
		{ChainGeneric, ChainAuto, generic},
		{ChainGeneric, ChainSSE2, generic},
		{ChainGeneric, ChainAVX2, withSpans("dotRowWideGeneric", false, false)},
		{ChainSSE2, ChainAuto, canon},
		{ChainSSE2, ChainGeneric, generic},
		{ChainSSE2, ChainAVX2, withSpans(wide, false, false)},
		{ChainAVX2, ChainAuto, withSpans(wide, false, false)},
		{ChainAVX2, ChainSSE2, canon},
	} {
		withChain(t, c.def, func(t *testing.T) {
			if got := boundBodies(KernelsFor(c.sel)); got != c.want {
				t.Errorf("default %v: KernelsFor(%v) runs %s, want %s", c.def, c.sel, got, c.want)
			}
		})
	}
}

// TestChainMatrixLegRunsItsBodies is the chain-matrix guard: the leg
// MOBILSTM_KERNEL_CHAIN names (sse2 when unset) must be the process
// default, and that default must bind the bodies the leg exists to
// exercise — so a leg can never silently alias another.
func TestChainMatrixLegRunsItsBodies(t *testing.T) {
	leg := chainFromEnv(os.Getenv(KernelChainEnv))
	if got := ActiveKernelChain(); got != leg {
		t.Fatalf("process default %v, want the %s leg %v", got, KernelChainEnv, leg)
	}
	// Row, one-input and block bodies per chain: the generic leg binds
	// no assembly; otherwise the canonical chain runs the SSE2 row body,
	// the AVX-512 one-input and block span bodies iff the CPU has
	// AVX-512F with OS-saved ZMM state, else the AVX one-input bodies iff
	// it has AVX with OS-saved YMM state, and the wide chain its AVX2+FMA
	// body iff the probe allows.
	canon := withSpans("dotRowGeneric", false, false)
	wide := withSpans("dotRowWideGeneric", false, false)
	if leg != ChainGeneric {
		canon = withSpans("dotRowSSE2", quadProbe(), blockProbe())
		if HasAVX2FMA() {
			wide[0] = "dotRowAVX2"
		}
	}
	auto := canon
	if leg == ChainAVX2 {
		auto = wide
	}
	for _, c := range []struct {
		sel  KernelChain
		want [4]string
	}{{ChainAuto, auto}, {ChainSSE2, canon}, {ChainAVX2, wide}} {
		got := boundBodies(KernelsFor(c.sel))
		t.Logf("leg %v (CPU %s): KernelsFor(%v) runs %s", leg, CPU(), c.sel, got)
		if got != c.want {
			t.Errorf("leg %v: KernelsFor(%v) runs %s, want %s", leg, c.sel, got, c.want)
		}
	}
	// The activation body is not a chain: the probe picks it on every
	// leg but the generic one, which keeps the scalar reference.
	x := NewVector(8)
	wantVec := 0
	if leg != ChainGeneric && HasAVX2FMA() {
		wantVec = len(x)
	}
	if got := actVec(x, x, false); got != wantVec {
		t.Errorf("leg %v: the activation body wrote %d of %d elements, want %d", leg, got, len(x), wantVec)
	}
}

// TestKernelsForRejectsUnknownChain: a value outside the four constants
// is a violation (an error through Guard), never a silent canonical run.
func TestKernelsForRejectsUnknownChain(t *testing.T) {
	var err error
	func() {
		defer Guard(&err)
		KernelsFor(KernelChain(9))
	}()
	if err == nil {
		t.Fatal("KernelsFor accepted chain 9")
	}
}

// TestWideChainStableAcrossBodies pins the fallback semantics the CI
// chain matrix leans on: the wide chain's output is the same bits
// whether the AVX2 body or the pure-Go twin computes it (pinned
// corpora), so forcing avx2 on a runner without the hardware exercises
// the identical contract.
func TestWideChainStableAcrossBodies(t *testing.T) {
	r := rng.New(0x92)
	row := make([]float32, 650)
	x := make([]float32, 650)
	for i := range row {
		row[i] = float32(r.Norm())
		x[i] = float32(r.Norm())
	}
	var viaDispatch, viaGeneric float32
	withChain(t, ChainAVX2, func(t *testing.T) {
		viaDispatch = KernelsFor(ChainAuto).dot(row, x)
	})
	withChain(t, ChainGeneric, func(t *testing.T) {
		viaGeneric = KernelsFor(ChainAVX2).dot(row, x)
	})
	if math.Float32bits(viaDispatch) != math.Float32bits(viaGeneric) {
		t.Fatalf("wide chain differs across bodies: %v vs %v", viaDispatch, viaGeneric)
	}
}

func TestCPUStringStable(t *testing.T) {
	if got := (CPUInfo{}).String(); got != "none" {
		t.Errorf("empty CPUInfo = %q, want none", got)
	}
	all := CPUInfo{SSE2: true, AVX: true, FMA: true, AVX2: true, OSYMM: true, AVX512F: true, OSZMM: true}
	if got := all.String(); got != "sse2+avx+fma+avx2+osymm+avx512f+oszmm" {
		t.Errorf("full CPUInfo = %q", got)
	}
	if HasAVX2FMA() {
		c := CPU()
		if !c.AVX2 || !c.FMA || !c.OSYMM {
			t.Errorf("HasAVX2FMA true but CPU() = %+v", c)
		}
	}
}
