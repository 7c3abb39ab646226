package tensor

import (
	"os"
	"sync/atomic"
)

// Kernel-chain selection. The package carries two sanctioned
// accumulation chains:
//
//   - the canonical 16-lane chain (kernel.go's dotRowGeneric, carried
//     bitwise by the SSE2 body in dot_amd64.s) — the default, and the
//     chain every historical artifact and cross-box trajectory was
//     recorded under;
//   - the wide 32-lane FMA chain (kernel_wide.go's dotRowWideGeneric,
//     carried by the AVX2+FMA body in dot_avx2_amd64.s) — an explicit
//     fast mode with its own determinism contract (wide-vs-wide bitwise
//     equality at any GOMAXPROCS and any batch B).
//
// A KernelChain names a chain; a body is code that carries it. The
// canonical chain has five bodies — the pure-Go definition, the SSE2
// row body, and per vector width the span bodies: at 256 bits the AVX
// one-input body (dot_quad_amd64.s: the four-row groups of a row range,
// of a kept-row list or one gathered group against one x per call), and
// at 512 bits the AVX-512 one-input body of the same contract and the
// AVX-512 block body (dot_block_amd64.s: the four-row groups of a row
// range or a kept-row list against four inputs per call). A CPU with
// AVX-512 runs both 512-bit bodies; the AVX one-input body binds only
// where the CPU has AVX but not AVX-512. A range is the list-less case
// of a vector body, not a body of its own. The wide chain has two.
// There is one kernel family (Kernels): KernelsFor resolves a selection
// to its bodies once, and every kernel of a run dots its rows through
// that binding.
// Beside the chains sit the bodies of the element-wise half of a step,
// which every chain shares: SigmoidVec/TanhVec's activation body — the
// AVX-512 one (act512_amd64.s, eight float64 lanes) where hasBlockBody
// holds, else the AVX2+FMA one (act_amd64.s, four) — and the AVX-512
// element-wise bodies (elem_amd64.s: the first-stage sums, the DRS
// compaction, the kept-row gather, the LSTM state update and scatter and
// the GRU blend), each bitwise its pure-Go twin. ActiveBodies names what
// the process default runs in each place.
// The process default (MOBILSTM_KERNEL_CHAIN) is the only production
// selector; explicit bindings are the package-level entry points
// (PackedGemv…, WidePacked…) and calibration's. A ChainGeneric process
// default additionally pins every chain to its pure-Go body,
// SigmoidVec/TanhVec to their scalar loop and every element-wise
// primitive to its twin, which is how CI exercises the reference bodies
// on any runner CPU.

// KernelChain selects which accumulation chain, through which body, a
// Kernels value runs. The zero value is ChainAuto.
type KernelChain uint32

const (
	// ChainAuto defers to the process default (ActiveKernelChain).
	ChainAuto KernelChain = iota
	// ChainGeneric is the canonical 16-lane chain through its pure-Go
	// body, with assembly disabled for the wide chain too — the
	// any-CPU reference configuration.
	ChainGeneric
	// ChainSSE2 is the canonical 16-lane chain through the SSE2 body
	// (bitwise identical to ChainGeneric; pure-Go off amd64).
	ChainSSE2
	// ChainAVX2 is the wide 32-lane FMA chain: the AVX2+FMA body when
	// the CPU supports it, the pure-Go wide twin otherwise.
	ChainAVX2
)

// String returns the canonical lower-case chain name, as accepted by
// ParseKernelChain and the MOBILSTM_KERNEL_CHAIN environment variable.
func (c KernelChain) String() string {
	switch c {
	case ChainAuto:
		return "auto"
	case ChainGeneric:
		return "generic"
	case ChainSSE2:
		return "sse2"
	case ChainAVX2:
		return "avx2"
	}
	return "unknown"
}

// ParseKernelChain maps a chain name ("auto", "generic", "sse2",
// "avx2") to its KernelChain. The second result is false for anything
// else, including the empty string.
func ParseKernelChain(s string) (KernelChain, bool) {
	switch s {
	case "auto":
		return ChainAuto, true
	case "generic":
		return ChainGeneric, true
	case "sse2":
		return ChainSSE2, true
	case "avx2":
		return ChainAVX2, true
	}
	return ChainAuto, false
}

// KernelChainEnv is the environment variable consulted once at package
// init: a valid chain name forces the process default, anything else is
// ignored. CI's chain matrix sets it to run the same test body once per
// chain on whatever silicon the runner has.
const KernelChainEnv = "MOBILSTM_KERNEL_CHAIN"

// activeChain holds the resolved process-default chain — never
// ChainAuto. KernelsFor reads it once per binding, never per row.
var activeChain atomic.Uint32

func init() {
	activeChain.Store(uint32(chainFromEnv(os.Getenv(KernelChainEnv))))
}

// chainFromEnv maps the MOBILSTM_KERNEL_CHAIN value to the initial
// process default: a valid explicit chain wins, anything else — empty,
// misspelled, or "auto" — falls back to the canonical default. Invalid
// values are ignored rather than fatal so a stale CI matrix entry can
// never change numerics silently *and* crash the binary.
func chainFromEnv(v string) KernelChain {
	if forced, ok := ParseKernelChain(v); ok && forced != ChainAuto {
		return forced
	}
	return ChainSSE2 // resolves to the pure-Go canonical body off amd64
}

// SetKernelChain sets the process-default chain and returns the
// effective selection: ChainAuto restores the canonical default
// (ChainSSE2), everything else sticks as asked — including ChainAVX2 on
// a CPU without AVX2, where the wide chain simply runs through its
// pure-Go body (see KernelsFor). The default is consulted wherever a
// caller passes ChainAuto; call sites that pinned an explicit chain are
// unaffected, except that ChainGeneric also forces the assembly bodies
// off process-wide (the reference configuration is all-Go).
//
// The switch is atomic but a binding already resolved keeps its body:
// set it between runs. Production selects the chain through
// MOBILSTM_KERNEL_CHAIN alone; only tests call this, through
// equivtest.UseChain, which restores the previous default.
func SetKernelChain(c KernelChain) KernelChain {
	if c == ChainAuto {
		c = ChainSSE2
	}
	activeChain.Store(uint32(c))
	return c
}

// ActiveKernelChain returns the current process-default chain.
func ActiveKernelChain() KernelChain {
	return KernelChain(activeChain.Load())
}

// KernelsFor binds the kernel family to the chain c selects. The
// process default is read here, once: ChainAuto follows it, and a
// ChainGeneric default turns every assembly body off. A forward pass
// resolves its chain exactly once and runs every kernel on the returned
// value, so chains never mix within a run. A value outside the four
// constants is a Panicf violation.
func KernelsFor(c KernelChain) Kernels {
	def := ActiveKernelChain()
	if c == ChainAuto {
		c = def
	}
	asm := def != ChainGeneric
	k := goKernels(rowBody(c, asm, asm && hasWideBody))
	if quad, gather := quadBody(c, asm && hasQuadBody, asm && hasBlockBody); quad != nil {
		k.quad, k.gather = quad, gather
	}
	if block := blockBody(c, asm && hasBlockBody); block != nil {
		k.block = block
	}
	return k
}

// rowBody is the resolution table — one row per chain: the row body
// that carries chain c when assembly is allowed (asm) and the AVX2+FMA
// body is usable (avx2); quadBody is its one-input span column and
// blockBody its four-row × four-input span column. Adding a chain is a
// constant with its name, a reference Go body, optionally an assembly
// body behind a probe, and a row here.
func rowBody(c KernelChain, asm, avx2 bool) rowBodyFn {
	switch c {
	case ChainGeneric:
		return dotRowGeneric
	case ChainSSE2:
		if asm {
			return dotRowSSE2
		}
		return dotRowGeneric
	case ChainAVX2:
		if avx2 {
			return dotRowAVX2
		}
		return dotRowWideGeneric
	}
	Panicf("tensor: unknown kernel chain %d", uint32(c))
	return nil
}

// quadBody is the table's one-input column: the span bodies that dot
// the four-row groups of a row range or a kept-row list, and of one
// gathered group, against one x for chain c — the AVX-512 one-input
// body where its probe allows it (avx512: AVX-512F with OS-saved ZMM
// state, and the process not forced generic), else the AVX one-input
// body where that probe does (avx), else nils: the binding keeps the
// pure-Go spans over its row body (goKernels). Only the canonical chain
// through its assembly binding has them; the wide chain and the pure-Go
// canonical binding dot row by row.
func quadBody(c KernelChain, avx, avx512 bool) (quadBodyFn, gatherBodyFn) {
	switch {
	case c != ChainSSE2:
		return nil, nil
	case avx512:
		return quadSpanAVX512, gatherAVX512
	case avx:
		return quadSpanAVX, gatherAVX
	}
	return nil, nil
}

// blockBody is the table's four-row × four-input column: the span body
// that dots the four-row groups of a row range or a kept-row list
// against four inputs for chain c when the AVX-512 block body is usable
// (avx512: the probe allows it and the process is not forced generic),
// or nil — the binding keeps the pure-Go block span, one four-row span
// per input (blockRows). As in quadBody, only the canonical chain
// through its assembly binding has it.
func blockBody(c KernelChain, avx512 bool) blockBodyFn {
	if c == ChainSSE2 && avx512 {
		return blockSpanAVX512
	}
	return nil
}

// Bodies names the code the process default runs in each place a body
// can bind: the one-input span body, the four-input block body, the
// activation body of SigmoidVec/TanhVec and the element-wise bodies
// (elem.go) — "go" where the pure-Go loop runs. Benchmark records stamp
// it next to the chain, which alone does not say which bodies ran.
type Bodies struct {
	Span, Block, Activation, Elementwise string
}

// ActiveBodies returns the Bodies the process default binds on this
// CPU, as KernelsFor(ChainAuto), SigmoidVec and the element-wise
// primitives resolve them.
func ActiveBodies() Bodies {
	b := Bodies{"go", "go", "go", "go"}
	c := ActiveKernelChain()
	if c == ChainGeneric {
		return b
	}
	switch {
	case c == ChainSSE2 && hasBlockBody:
		b.Span, b.Block = "avx512", "avx512"
	case c == ChainSSE2 && hasQuadBody:
		b.Span = "avx"
	}
	switch {
	case hasBlockBody:
		b.Activation, b.Elementwise = "avx512", "avx512"
	case hasActBody:
		b.Activation = "avx2+fma"
	}
	return b
}
