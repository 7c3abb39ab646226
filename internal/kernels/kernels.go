// Package kernels builds gpu.KernelSpec cost descriptors for the GPU
// kernels of the paper's recurrent execution flows (Algorithm 1 baseline,
// Algorithm 3 DRS flow, and the tissue-parallel inter-cell flow), plus the
// zero-pruning comparison baseline [Han et al., Deep Compression].
//
// Every row is written for a cell's block geometry (Cell): G h-tall gate
// blocks in the united matrices, the first F of them in the DRS flow's
// first stage. The LSTM is G = 4 (f,i,c,o; F = 1, the output gate o);
// the GRU of §II-B ("the proposed methods can also be applied to GRUs
// with simple adjustment") is G = 3 (z,r,h; F = 2). Its update gate z
// plays the output-filter role — where z_t[j] ~ 0, h_t[j] carries
// h_{t-1}[j] — so only the candidate block U_h is skippable, and GRU-DRS
// tops out at lower compression than LSTM-DRS.
//
// Traffic models (H = hidden size, E = input size, N = cells, T = tissue
// size; float32 = 4 bytes):
//
//   - united recurrent matrix U (GH x H): 4G*H^2 bytes (LSTM 16*H^2)
//   - united input matrix W (GH x E): 4G*H*E bytes
//
// Baseline Sgemv(U, h): one thread per output row; the input vector h is
// staged in shared memory and read by every row thread (4G*H^2 bytes of
// shared traffic), while U streams from DRAM. Because U is far larger than
// the mobile GPU's L2 and is evicted between cells (validated against the
// cache simulator in gpu), every launch re-loads the full matrix — the
// paper's inter-cell redundancy.
//
// Tissue Sgemm(U, H_T): the T batched input vectors are staged in shared
// memory and each row thread reads all of them (4G*H^2*T shared bytes),
// while U still streams from DRAM once per tissue. Shared-memory traffic
// grows linearly with T while DRAM traffic stays ~flat, so past a
// crossover tissue size the kernel saturates on-chip bandwidth — the
// mechanism behind the paper's maximum tissue size (Fig. 9). When a
// requested T would exceed 100% shared utilization the kernel must be
// re-configured (more threads, smaller per-thread bandwidth), which costs
// compute efficiency and extra synchronization; the model charges that
// penalty, producing Fig. 9's performance droop.
package kernels

import (
	"mobilstm/internal/gpu"
	"mobilstm/internal/gpu/crm"
	"mobilstm/internal/tensor"
)

// Cell is a recurrent cell's block geometry in units of the hidden size
// — recurrent.Shape's Gates, First and State (this package sits below
// recurrent and cannot import it).
type Cell struct {
	// Gates is the number of h-tall blocks in the united W and U.
	Gates int
	// First is the number of blocks in the DRS flow's first stage; the
	// other Gates-First form the skippable second stage.
	First int
	// State is the number of h-wide state blocks a cell writes back.
	State int
}

// LSTM is the cell of Eqs. 1-5: f,i,c,o with o first, state h|c.
var LSTM = Cell{Gates: 4, First: 1, State: 2}

// ewFLOPsPerElem counts the element-wise gate math per hidden element
// (adds, multiplies and activation evaluations): Eqs. 1-5 for the
// LSTM's four gates; the z, r, candidate mix and interpolation for the
// GRU's three.
func (c Cell) ewFLOPsPerElem() float64 {
	switch c.Gates {
	case 4:
		return 30
	case 3:
		return 22
	}
	tensor.Panicf("kernels: no element-wise model for a %d-gate cell", c.Gates)
	return 0
}

// Names used for per-kernel aggregation in simulation results.
const (
	NameSgemmWx    = "sgemm_wx"     // per-layer W x X
	NameSgemvU     = "sgemv_u"      // baseline per-cell U x h
	NameSgemmT     = "sgemm_tissue" // per-tissue U x H_T
	NameLstmEW     = "lstm_ew"      // element-wise gate math
	NameSgemvUo    = "sgemv_uo"     // DRS: first-stage U x h (DRS gate first)
	NameDRS        = "drs"          // DRS threshold scan producing R
	NameSgemvUfic  = "sgemv_ufic"   // DRS: second-stage U x operand with rows skipped
	NameSgemmTUo   = "sgemm_t_uo"   // combined: per-tissue first-stage gemm
	NameSgemmTUfic = "sgemm_t_ufic" // combined: per-tissue second-stage gemm w/ skips
	NamePruned     = "sgemv_csr"    // zero-pruning CSR gemv baseline
	NameRelevance  = "relevance"    // Algorithm 2 breakpoint search
	NamePredict    = "predict"      // predicted-link injection

	NameEngineJit    = "engine_jit"    // cold start: JIT-compile the kernel family
	NameEngineUpload = "engine_upload" // engine materialization: weight upload
)

// Model parameters. These are the documented modelling constants of the
// substitution (see DESIGN.md §5); everything else is derived from shapes
// and the platform config.
const (
	// gemmRegTile is the register-blocking factor of the large per-layer
	// Sgemm(W, x): each shared-memory operand fetch feeds gemmRegTile
	// FMAs, so shared traffic is FLOPs*4/gemmRegTile bytes.
	gemmRegTile = 16

	// swDRSCoalesceFrac derates effective DRAM bandwidth under pure
	// software row skipping: masked-out lanes punch holes in otherwise
	// coalesced row streams, so surviving loads straddle partially-used
	// bursts. The paper measures software DRS at only 1.07x.
	swDRSCoalesceFrac = 0.55

	// csrCoalesceFrac derates effective DRAM bandwidth of the
	// zero-pruning CSR gemv: value+index gather is irregular at element
	// granularity. The paper measures a 35% slowdown despite 37% fewer
	// bytes.
	csrCoalesceFrac = 0.42

	// csrDivergenceScale inflates compute time of the CSR gemv: rows
	// have unequal nonzero counts, so warps serialize on the longest
	// lane.
	csrDivergenceScale = 1.8

	// reconfigComputeScale and reconfigSharedScale model the compile-time
	// kernel re-configuration forced when a tissue would exceed 100%
	// shared-memory bandwidth: the kernel switches to a split-row layout
	// with more threads, paying reduction traffic and lower per-thread
	// efficiency (§IV-C).
	reconfigComputeScale = 1.6
	reconfigSharedScale  = 1.35
	reconfigExtraBarrier = 2

	// engineJitVariants is the number of kernel variants a serving
	// engine JIT-compiles on a cold start: the united-gate gemv/gemm
	// family, the DRS flow, the tissue variants and their reconfigured
	// twins. Driver JIT of a kernel module is host work, charged per
	// variant in GPU-clock cycles (engineJitCyclesPerVariant): on a
	// ~1 GHz mobile part the full family costs a few hundred ms, which
	// matches the cold/warm gap mobile inference stacks measure between
	// first and steady-state runs (FlashMem, PAPERS.md).
	engineJitVariants         = 12
	engineJitCyclesPerVariant = 40e6
	engineInstallUnpackCycles = 2e6 // warm install: unpack a propagated artifact
)

// Builder constructs kernel specs for one platform and one cell.
type Builder struct {
	cfg  gpu.Config
	crm  crm.Module
	cell Cell
}

// NewBuilder returns an LSTM builder for the platform.
func NewBuilder(cfg gpu.Config) *Builder { return NewCellBuilder(cfg, LSTM) }

// NewCellBuilder returns a builder for the platform and cell geometry.
func NewCellBuilder(cfg gpu.Config, c Cell) *Builder {
	if c.First < 1 || c.First >= c.Gates || c.State < 1 {
		tensor.Panicf("kernels: invalid cell geometry %+v", c)
	}
	return &Builder{cfg: cfg, crm: crm.Default(), cell: c}
}

// CRM returns the CTA-reorganization module model used for hardware DRS.
func (b *Builder) CRM() crm.Module { return b.crm }

const f32 = 4 // bytes per float32

// SgemmWx is the per-layer kernel computing W x X for all N cells at
// once (Algorithm 1 step 2). With proper tiling W streams from DRAM once;
// the activations and outputs stream as well.
func (b *Builder) SgemmWx(h, e, n int) gpu.KernelSpec {
	g := b.cell.Gates
	flops := 2 * float64(g) * float64(h) * float64(e) * float64(n)
	dram := float64(4 * g * h * e) // W once: gh x e floats * 4 bytes
	dram += float64(4 * e * n)     // X in
	dram += float64(4 * g * h * n) // pre-activations out
	return gpu.KernelSpec{
		Name:        NameSgemmWx,
		FLOPs:       flops,
		DRAMBytes:   dram,
		SharedBytes: flops * f32 / gemmRegTile,
		Threads:     g * h,
		Barriers:    2,
	}
}

// SgemvU is the baseline per-cell kernel computing the united U x h_{t-1}
// (Algorithm 1 step 1). For every Table II benchmark the united U
// exceeds the TX1's 256 KB L2 and the whole matrix re-loads each cell.
func (b *Builder) SgemvU(h int) gpu.KernelSpec {
	return b.gemv(NameSgemvU, b.cell.Gates, h)
}

// gemv is a per-cell gemv over blocks h-tall blocks of U: U streams
// from DRAM, h is broadcast through shared memory to every row thread.
func (b *Builder) gemv(name string, blocks, h int) gpu.KernelSpec {
	hh := float64(h) * float64(h)
	return gpu.KernelSpec{
		Name:        name,
		FLOPs:       2 * float64(blocks) * hh,
		DRAMBytes:   float64(4*blocks)*hh + float64(4*h) + float64(4*blocks*h), // U + h in + gates out
		SharedBytes: float64(4*blocks) * hh,                                    // h broadcast to the row threads
		Threads:     blocks * h,
		Barriers:    1,
	}
}

// tissueGemm returns the spec of a per-tissue Sgemm over a (rows x h)
// slice of U against T batched vectors, marking whether re-configuration
// was required. liveFrac scales the surviving rows (1.0 when no skipping).
func (b *Builder) tissueGemm(name string, rows, h, t int, liveFrac float64) (gpu.KernelSpec, bool) {
	if liveFrac < 0 {
		liveFrac = 0
	}
	live := float64(rows) * liveFrac
	flops := 2 * live * float64(h) * float64(t)
	dram := live*float64(h)*f32 + float64(h*t)*f32 + live*float64(t)*f32
	shared := live * float64(h) * float64(t) * f32 // each row thread reads the batched inputs
	spec := gpu.KernelSpec{
		Name:        name,
		FLOPs:       flops,
		DRAMBytes:   dram,
		SharedBytes: shared,
		Threads:     int(live),
		Barriers:    1,
	}
	// Would this launch saturate shared bandwidth? Compare the two
	// roofline times; beyond 100% utilization the kernel is re-configured
	// at compile time (§IV-C) and pays the penalty constants.
	sharedCycles := shared / b.cfg.SharedBytesPerCycle()
	dramCycles := dram / b.cfg.DRAMBytesPerCycle()
	computeCycles := flops / (float64(b.cfg.Cores()) * 2)
	bound := dramCycles
	if computeCycles > bound {
		bound = computeCycles
	}
	if sharedCycles > bound {
		spec.ComputeScale = reconfigComputeScale
		spec.SharedBytes *= reconfigSharedScale
		spec.Barriers += reconfigExtraBarrier
		return spec, true
	}
	return spec, false
}

// SgemmTissue is the per-tissue kernel U x H_T of the inter-cell
// optimization. The boolean reports whether the tissue size forced a
// kernel re-configuration (it is true above the MTS).
func (b *Builder) SgemmTissue(h, t int) (gpu.KernelSpec, bool) {
	return b.tissueGemm(NameSgemmT, b.cell.Gates*h, h, t, 1)
}

// EW is the element-wise kernel of Algorithm 1 step 3, covering t cells'
// worth of gate math (t=1 for the baseline flow).
func (b *Builder) EW(h, t int) gpu.KernelSpec { return b.EWPartial(h, t, b.cell.Gates) }

// EWPartial is the element-wise work for blocks of the cell's gate
// blocks (e.g. just o_t in the LSTM DRS flow, Algorithm 3 line 5): the
// state write-back to DRAM and the freshly produced gates (plus the
// bias) re-read from L2, scaled by the share of blocks processed.
func (b *Builder) EWPartial(h, t, blocks int) gpu.KernelSpec {
	elems := float64(h) * float64(t)
	frac := float64(blocks) / float64(b.cell.Gates)
	return gpu.KernelSpec{
		Name:       NameLstmEW,
		FLOPs:      b.cell.ewFLOPsPerElem() * elems * frac,
		DRAMBytes:  float64(4*b.cell.State) * elems * frac,
		L2HitBytes: float64(4*(b.cell.Gates+1)) * elems * frac,
		Threads:    h * t,
	}
}

// SgemvUo is the DRS flow's first kernel, the first-stage blocks of U x
// h_{t-1} (Algorithm 3 line 4): the LSTM's U_o, the GRU's U_{z,r}, so the
// DRS gate exists before the skippable blocks are touched.
func (b *Builder) SgemvUo(h int) gpu.KernelSpec {
	return b.gemv(NameSgemvUo, b.cell.First, h)
}

// DRS is the threshold-scan kernel comparing the DRS gate (LSTM o_t, GRU
// z_t) against alpha_intra and emitting the trivial-row list R
// (Algorithm 3 line 6). trivial is the
// number of rows that will be skipped; the list transfer to the GMU is
// charged as extra cycles.
func (b *Builder) DRS(h, trivial int) gpu.KernelSpec {
	return gpu.KernelSpec{
		Name:        NameDRS,
		FLOPs:       2 * float64(h),
		L2HitBytes:  4 * float64(h),
		DRAMBytes:   4 * float64(trivial), // R list write
		Threads:     h,
		ExtraCycles: 200, // list hand-off to the grid management unit
	}
}

// DRSMode selects how row skipping executes.
type DRSMode int

const (
	// DRSHardware compacts surviving threads with the CRM: savings are
	// proportional to skipped rows and coalescing is preserved.
	DRSHardware DRSMode = iota
	// DRSSoftware masks skipped lanes in the unmodified GPU: loads are
	// saved but the surviving stream is un-coalesced and divergent warps
	// still occupy issue slots.
	DRSSoftware
)

// SgemvUfic is the DRS flow's main kernel, the second-stage blocks of U
// (LSTM U_{f,i,c}, GRU U_h) times the operand, with skipRows of their
// rows disabled (Algorithm 3 line 7).
func (b *Builder) SgemvUfic(h, skipRows int, mode DRSMode) gpu.KernelSpec {
	rows := (b.cell.Gates - b.cell.First) * h
	if skipRows < 0 {
		skipRows = 0
	}
	if skipRows > rows {
		skipRows = rows
	}
	live := rows - skipRows
	flops := 2 * float64(live) * float64(h)
	dram := float64(live)*float64(h)*f32 + float64(4*h) + float64(live)*f32
	spec := gpu.KernelSpec{
		Name:        NameSgemvUfic,
		FLOPs:       flops,
		DRAMBytes:   dram,
		SharedBytes: float64(live) * float64(h) * f32,
		Threads:     live,
		Barriers:    1,
	}
	switch mode {
	case DRSHardware:
		spec.ExtraCycles = b.crm.Reorganize(rows, skipRows)
		spec.Threads = b.crm.CompactedThreads(rows, skipRows)
	case DRSSoftware:
		// Divergent lanes still occupy their warps' issue slots: compute
		// time is that of the full row count, and the holey access
		// pattern derates DRAM efficiency.
		if live > 0 {
			spec.ComputeScale = float64(rows) / float64(live)
		}
		spec.EffectiveDRAMFrac = swDRSCoalesceFrac
		spec.Threads = rows
	}
	return spec
}

// SgemmTissueUo is the combined flow's per-tissue first-stage gemm.
func (b *Builder) SgemmTissueUo(h, t int) (gpu.KernelSpec, bool) {
	return b.tissueGemm(NameSgemmTUo, b.cell.First*h, h, t, 1)
}

// SgemmTissueUfic is the combined flow's per-tissue second-stage gemm
// with skipRows of its rows disabled for the whole tissue (rows trivial
// for every cell in the tissue). Hardware DRS semantics: the CRM
// compacts the surviving rows.
func (b *Builder) SgemmTissueUfic(h, t, skipRows int) (gpu.KernelSpec, bool) {
	rows := (b.cell.Gates - b.cell.First) * h
	if skipRows < 0 {
		skipRows = 0
	}
	if skipRows > rows {
		skipRows = rows
	}
	liveFrac := float64(rows-skipRows) / float64(rows)
	spec, re := b.tissueGemm(NameSgemmTUfic, rows, h, t, liveFrac)
	spec.ExtraCycles += b.crm.Reorganize(rows, skipRows)
	return spec, re
}

// PrunedSgemv is the zero-pruning baseline [31]: the united U stored as
// CSR with the given element density (surviving fraction of weights).
// Data movement shrinks to density*(value+index) but the gather pattern
// un-coalesces and warps diverge on unequal row lengths.
func (b *Builder) PrunedSgemv(h int, density float64) gpu.KernelSpec {
	if density < 0 {
		density = 0
	}
	if density > 1 {
		density = 1
	}
	g := b.cell.Gates
	hh := float64(h) * float64(h)
	nnz := float64(g) * hh * density
	return gpu.KernelSpec{
		Name:              NamePruned,
		FLOPs:             2 * nnz,
		DRAMBytes:         nnz*(f32+f32) + float64(4*h) + float64(4*g*h) + float64(g*h)*f32, // values+indices, h, out, row ptrs
		SharedBytes:       nnz * f32,
		Threads:           g * h,
		Barriers:          1,
		ComputeScale:      csrDivergenceScale,
		EffectiveDRAMFrac: csrCoalesceFrac,
	}
}

// RequestBatch is the kernel sequence of one exact batch-B inference:
// B concurrent same-shape requests advance in lockstep, so every cell
// runs one Sgemm(U, H_B) over the B requests' hidden vectors — the same
// kernel shape as a tissue of size B, but the batch dimension is
// requests, so the math is exact (§II-C's server-style weight reuse).
// The caller charges the queueing wait separately: the last request of
// a batch pays for the first to arrive.
func (b *Builder) RequestBatch(h, length, layers, batch int) []gpu.KernelSpec {
	var ks []gpu.KernelSpec
	for layer := 0; layer < layers; layer++ {
		ks = append(ks, b.SgemmWx(h, h, length*batch))
		for c := 0; c < length; c++ {
			k, _ := b.SgemmTissue(h, batch)
			ks = append(ks, k, b.EW(h, batch))
		}
	}
	return ks
}

// RequestBatchRagged is RequestBatch for requests of unequal lengths:
// the batch advances in lockstep and members drop out of the active set
// as they finish, so cell t runs its tissue-shaped Sgemm over only the
// still-active requests (no padding compute). The W·x stage covers the
// sum of the lengths. With all lengths equal it reduces to RequestBatch.
func (b *Builder) RequestBatchRagged(h, layers int, lens []int) []gpu.KernelSpec {
	total, maxLen := raggedShape(lens)
	var ks []gpu.KernelSpec
	for layer := 0; layer < layers; layer++ {
		ks = append(ks, b.SgemmWx(h, h, total))
		for c := 0; c < maxLen; c++ {
			active := activeAt(lens, c)
			k, _ := b.SgemmTissue(h, active)
			ks = append(ks, k, b.EW(h, active))
		}
	}
	return ks
}

// RequestBatchRaggedMs is sim's milliseconds for RequestBatchRagged(h,
// layers, lens) — bit for bit sim.Run(...).Seconds·1e3 — without building
// the sequence: the same launches' cycles (gpu.Simulator.Cycles) added in
// the same order, a tissue and element-wise pair priced once per run of
// cells with one active count. A serving window prices its lengths this
// way in about a microsecond, allocating nothing.
func (b *Builder) RequestBatchRaggedMs(sim *gpu.Simulator, h, layers int, lens []int) float64 {
	total, maxLen := raggedShape(lens)
	wx := sim.Cycles(b.SgemmWx(h, h, total))
	var cycles float64
	for layer := 0; layer < layers; layer++ {
		cycles += wx
		priced, tissue, ew := 0, 0.0, 0.0
		for c := 0; c < maxLen; c++ {
			if active := activeAt(lens, c); active != priced {
				k, _ := b.SgemmTissue(h, active)
				priced, tissue, ew = active, sim.Cycles(k), sim.Cycles(b.EW(h, active))
			}
			cycles += tissue
			cycles += ew
		}
	}
	return sim.Config().CyclesToSeconds(cycles) * 1e3
}

// raggedShape validates a ragged batch's lengths and returns their sum
// and maximum.
func raggedShape(lens []int) (total, maxLen int) {
	if len(lens) == 0 {
		tensor.Panicf("kernels: RequestBatchRagged of an empty batch")
	}
	for _, ln := range lens {
		if ln < 1 {
			tensor.Panicf("kernels: RequestBatchRagged length %d", ln)
		}
		total += ln
		maxLen = max(maxLen, ln)
	}
	return total, maxLen
}

// activeAt is how many requests of a ragged batch are still running at
// cell c.
func activeAt(lens []int, c int) int {
	active := 0
	for _, ln := range lens {
		if c < ln {
			active++
		}
	}
	return active
}

// engineWeightBytes is the device-resident weight footprint of a
// serving engine: per layer the united recurrent matrix U (4H x H,
// 16*H^2 bytes) and the united input matrix W (4H x H for the zoo's
// E = H models) plus the 4H united bias, and the classifier head is
// charged as one more H-row float block.
func engineWeightBytes(h, layers int) float64 {
	perLayer := float64(16*h*h+16*h*h) + float64(4*h)*f32
	head := float64(h*h) * f32
	return float64(layers)*perLayer + head
}

// EngineBuild is the cold-start cost of materializing a benchmark's
// serving engine on a device that has never built it: the driver
// JIT-compiles the kernel-variant family (host work, the dominant
// term) and streams the united weight matrices into device memory.
// The fleet layer charges this sequence into the latency of the first
// request window a cold shard serves — the §II-C queueing analysis
// extended with the cold/warm distinction the GKM-style engine cache
// makes explicit.
func (b *Builder) EngineBuild(h, layers int) []gpu.KernelSpec {
	if h < 1 || layers < 1 {
		tensor.Panicf("kernels: EngineBuild shape h=%d layers=%d", h, layers)
	}
	return []gpu.KernelSpec{
		{
			Name:       NameEngineJit,
			HostCycles: engineJitVariants * engineJitCyclesPerVariant,
		},
		{
			Name:      NameEngineUpload,
			DRAMBytes: engineWeightBytes(h, layers),
		},
	}
}

// EngineInstall is the warm-start counterpart of EngineBuild: the shard
// adopts a peer's already-built engine artifact (the GKM propagation
// idea — package the warm artifact, push it to peers, skip the JIT), so
// it pays only the artifact unpack and the weight upload.
func (b *Builder) EngineInstall(h, layers int) []gpu.KernelSpec {
	if h < 1 || layers < 1 {
		tensor.Panicf("kernels: EngineInstall shape h=%d layers=%d", h, layers)
	}
	return []gpu.KernelSpec{
		{
			Name:       NameEngineUpload,
			DRAMBytes:  engineWeightBytes(h, layers),
			HostCycles: engineInstallUnpackCycles,
		},
	}
}

// Relevance is the Algorithm 2 breakpoint-search work for one layer: the
// per-cell range arithmetic over all n cells. The per-row L1 norms D of
// the united U are input-independent and computed once per application
// offline (Fig. 10), so the runtime cost is only the O(H) overlap math per
// link against the freshly produced W*x pre-activations (in L2).
func (b *Builder) Relevance(h, n int) gpu.KernelSpec {
	g := b.cell.Gates
	return gpu.KernelSpec{
		Name:       NameRelevance,
		FLOPs:      float64(5*g) * float64(h) * float64(n),
		L2HitBytes: float64(4*g) * float64(h) * float64(n),
		DRAMBytes:  4 * float64(n),
		Threads:    g * h,
		HostCycles: float64(n) * 60, // threshold compare + sublayer bookkeeping
	}
}

// Predict is the accuracy-recovery step injecting the predicted context
// link at breakpoints (Fig. 10, step 6) — a state copy per break.
func (b *Builder) Predict(h, breaks int) gpu.KernelSpec {
	return gpu.KernelSpec{
		Name:       NamePredict,
		FLOPs:      float64(h * breaks),
		DRAMBytes:  float64(4*b.cell.State) * float64(h*breaks),
		Threads:    h,
		HostCycles: float64(breaks) * 40,
	}
}
