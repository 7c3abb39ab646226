package experiments

import (
	"fmt"

	"mobilstm/internal/energy"
	"mobilstm/internal/gpu"
	"mobilstm/internal/intercell"
	"mobilstm/internal/kernels"
	"mobilstm/internal/model"
	"mobilstm/internal/report"
	"mobilstm/internal/sched"
)

// TableI renders the platform specification (Table I).
func (s *Suite) TableI() *report.Table {
	t := report.NewTable("Table I: Platform Specifications", "Hardware", "Specification")
	cfg := s.cfg.GPU
	t.AddRowf("System", "Tegra X1 SoC (simulated; DESIGN.md §2)")
	t.AddRowf("CPU", "Cortex-A57 + Cortex-A53 (host model)")
	t.AddRowf("Memory", fmt.Sprintf("4GB LPDDR4, %.1fGB/s", cfg.DRAMBandwidth/1e9))
	t.AddRowf("GPU", fmt.Sprintf("Maxwell, %d Core, %.0fMHz", cfg.Cores(), cfg.ClockHz/1e6))
	t.AddRowf("L2 cache", fmt.Sprintf("%dKB, %d-way, %dB lines", cfg.L2Bytes>>10, cfg.L2Ways, cfg.L2LineBytes))
	t.AddRowf("Shared memory", fmt.Sprintf("%dKB/SM, %.0fB/cycle/SM", cfg.SharedBytesPerSM>>10, cfg.SharedBWBytesPerCycle))
	return t
}

// TableII renders the benchmark zoo (Table II).
func (s *Suite) TableII() *report.Table {
	t := report.NewTable("Table II: NLP applications", "Name", "Abbr.", "Hidden_Size", "Layers", "Length", "Classes")
	for _, b := range model.Zoo() {
		t.AddRow(b.Name, string(b.Task), b.Hidden, b.Layers, b.Length, b.Classes)
	}
	return t
}

// baselineResult simulates the full baseline flow of one benchmark.
func (s *Suite) baselineResult(name string) *gpu.Result {
	return s.Engine(name).Baseline().Result
}

// Fig4 reports the pipeline-stall breakdown of the Sgemv kernel per
// benchmark under the baseline flow — off-chip memory dominates.
func (s *Suite) Fig4() *report.Table {
	t := report.NewTable("Fig. 4: contribution to Sgemv pipeline stall cycles",
		"Benchmark", "off-chip", "on-chip", "barrier", "launch", "other", "sgemv share")
	for _, name := range BenchmarkNames() {
		res := s.baselineResult(name)
		fr := res.StallFractionsOf(kernels.NameSgemvU)
		t.AddRowf(name,
			report.Pct(fr[gpu.StallOffChip]), report.Pct(fr[gpu.StallOnChip]),
			report.Pct(fr[gpu.StallBarrier]), report.Pct(fr[gpu.StallLaunch]),
			report.Pct(fr[gpu.StallOther]),
			report.Pct(res.CycleShareOf(kernels.NameSgemvU)))
	}
	return t
}

// Fig5 quantifies the §III-A redundant-load observation with the L2 cache
// simulator: streaming the united U through the cache once per cell
// reloads the matrix from DRAM every time, so the actually-loaded bytes
// blow up by ~length x.
func (s *Suite) Fig5() *report.Table {
	t := report.NewTable("§III-A: actually-loaded vs original data size (one layer, L2 simulation)",
		"Benchmark", "U size", "unique data", "DRAM loaded", "blow-up")
	for _, b := range model.Zoo() {
		l2 := gpu.NewL2(s.cfg.GPU)
		uBytes := int64(16 * b.Hidden * b.Hidden)
		hBytes := int64(4 * b.Hidden)
		// Address space: U at 0, per-cell h vectors after it.
		var loaded int64
		for cell := 0; cell < b.Length; cell++ {
			loaded += l2.AccessRange(0, uBytes) * s.cfg.GPU.L2LineBytes
			hAddr := uBytes + int64(cell)*hBytes
			loaded += l2.AccessRange(hAddr, hBytes) * s.cfg.GPU.L2LineBytes
		}
		unique := uBytes + int64(b.Length)*hBytes
		t.AddRowf(b.Name,
			fmt.Sprintf("%.2fMB", float64(uBytes)/(1<<20)),
			fmt.Sprintf("%.2fMB", float64(unique)/(1<<20)),
			fmt.Sprintf("%.0fMB", float64(loaded)/(1<<20)),
			fmt.Sprintf("%.0fx", float64(loaded)/float64(unique)))
	}
	return t
}

// Fig6 reports off-chip vs on-chip bandwidth utilization during Sgemv.
func (s *Suite) Fig6() *report.Table {
	t := report.NewTable("Fig. 6: bandwidth utilization during Sgemv",
		"Benchmark", "off-chip util", "on-chip util")
	for _, name := range BenchmarkNames() {
		g := s.baselineResult(name).Group(kernels.NameSgemvU)
		t.AddRowf(name, report.Pct(g.DRAMUtil), report.Pct(g.SharedUtil))
	}
	return t
}

// Fig9 sweeps the tissue size for one layer of each benchmark: normalized
// performance rises until the shared-memory roofline saturates, then
// drops (the MTS), mirroring the paper's Fig. 9.
func (s *Suite) Fig9(maxT int) (*report.Figure, *report.Figure, map[string]int) {
	perf := report.NewFigure("Fig. 9a: normalized performance of one LSTM layer vs tissue size",
		"tissue size", "normalized performance")
	util := report.NewFigure("Fig. 9b: shared-memory bandwidth utilization vs tissue size",
		"tissue size", "utilization")
	mts := make(map[string]int)
	sim := gpu.NewSimulator(s.cfg.GPU)
	kb := kernels.NewBuilder(s.cfg.GPU)
	for _, b := range model.Zoo() {
		xs := make([]float64, 0, maxT)
		perfs := make([]float64, 0, maxT)
		utils := make([]float64, 0, maxT)
		var base float64
		for tt := 1; tt <= maxT; tt++ {
			tissues := (b.Length + tt - 1) / tt
			var ks []gpu.KernelSpec
			ks = append(ks, kb.SgemmWx(b.Hidden, b.Hidden, b.Length))
			for i := 0; i < tissues; i++ {
				k, _ := kb.SgemmTissue(b.Hidden, tt)
				ks = append(ks, k, kb.EW(b.Hidden, tt))
			}
			res := sim.Run(ks)
			if tt == 1 {
				base = res.Cycles
			}
			g := res.Group(kernels.NameSgemmT)
			xs = append(xs, float64(tt))
			perfs = append(perfs, base/res.Cycles)
			utils = append(utils, g.SharedUtil)
		}
		perf.Add(b.Name, xs, perfs)
		util.Add(b.Name, xs, utils)
		mts[b.Name] = intercell.FindMTS(s.cfg.GPU, b.Hidden, maxT)
	}
	return perf, util, mts
}

// Fig14Row is one benchmark's headline result.
type Fig14Row struct {
	Benchmark string
	// Speedup and energy saving at the accuracy-oriented point per mode.
	Inter, Intra, Combined                   float64
	InterSaving, IntraSaving, CombinedSaving float64
	CombinedAccuracy                         float64
}

// Fig14 evaluates the headline result: speedup and energy saving of the
// inter-cell, intra-cell and combined optimizations at the 98% accuracy
// requirement, per benchmark plus the average.
func (s *Suite) Fig14() ([]Fig14Row, *report.Table) {
	rows := make([]Fig14Row, 0, 7)
	var avg Fig14Row
	for _, name := range BenchmarkNames() {
		inter := s.AOOutcome(name, sched.Inter)
		intra := s.AOOutcome(name, sched.Intra)
		comb := s.AOOutcome(name, sched.Combined)
		r := Fig14Row{
			Benchmark: name,
			Inter:     inter.Speedup, Intra: intra.Speedup, Combined: comb.Speedup,
			InterSaving: inter.EnergySaving, IntraSaving: intra.EnergySaving,
			CombinedSaving:   comb.EnergySaving,
			CombinedAccuracy: comb.Accuracy,
		}
		rows = append(rows, r)
		avg.Inter += r.Inter
		avg.Intra += r.Intra
		avg.Combined += r.Combined
		avg.InterSaving += r.InterSaving
		avg.IntraSaving += r.IntraSaving
		avg.CombinedSaving += r.CombinedSaving
		avg.CombinedAccuracy += r.CombinedAccuracy
	}
	n := float64(len(rows))
	avg.Benchmark = "average"
	avg.Inter /= n
	avg.Intra /= n
	avg.Combined /= n
	avg.InterSaving /= n
	avg.IntraSaving /= n
	avg.CombinedSaving /= n
	avg.CombinedAccuracy /= n
	rows = append(rows, avg)

	t := report.NewTable("Fig. 14: speedup and energy saving at the 98% accuracy requirement (AO)",
		"Benchmark", "inter x", "intra x", "combined x", "inter E%", "intra E%", "combined E%", "acc")
	for _, r := range rows {
		t.AddRowf(r.Benchmark,
			fmt.Sprintf("%.2f", r.Inter), fmt.Sprintf("%.2f", r.Intra), fmt.Sprintf("%.2f", r.Combined),
			fmt.Sprintf("%.1f", r.InterSaving*100), fmt.Sprintf("%.1f", r.IntraSaving*100),
			fmt.Sprintf("%.1f", r.CombinedSaving*100),
			fmt.Sprintf("%.3f", r.CombinedAccuracy))
	}
	return rows, t
}

// Fig15 reports per-layer speedup and energy saving of the inter-cell
// optimization at its AO point: earlier layers divide more and win more.
func (s *Suite) Fig15() *report.Table {
	t := report.NewTable("Fig. 15: per-layer inter-cell speedup / energy saving (AO point)",
		"Benchmark", "layer", "speedup", "energy saving", "break rate")
	sim := gpu.NewSimulator(s.cfg.GPU)
	for _, name := range BenchmarkNames() {
		e := s.Engine(name)
		curve := s.Curve(name, sched.Inter)
		ao := s.Outcome(name, sched.Inter, curve.AO())
		if len(ao.Stats) == 0 {
			continue
		}
		for layer, st := range ao.Stats {
			basePlan := sched.Plan{
				Cfg: s.cfg.GPU, Mode: sched.Baseline,
				Hidden: e.B.Hidden, Input: e.B.Hidden, Length: e.B.Length, Layers: 1,
			}
			interPlan := basePlan
			interPlan.Mode = sched.Inter
			interPlan.MTS = e.MTS
			interPlan.Stats = []sched.LayerStats{st}
			interPlan.Seed = e.B.Seed ^ uint64(layer)
			base := sim.Run(sched.Kernels(basePlan))
			opt := sim.Run(sched.Kernels(interPlan))
			saving := energy.Saving(
				energy.Of(s.cfg.Energy, base, false),
				energy.Of(s.cfg.Energy, opt, false))
			t.AddRowf(name, fmt.Sprintf("%d", layer+1),
				report.X(base.Cycles/opt.Cycles), report.Pct(saving),
				fmt.Sprintf("%.2f", st.BreakRate))
		}
	}
	return t
}

// Fig16Row is one benchmark's weight-compression comparison.
type Fig16Row struct {
	Benchmark string
	// Compression is moved-weight-bytes / dense-weight-bytes per cell.
	PruneCompression, DRSCompression   float64
	PruneSpeedup, SWSpeedup, HWSpeedup float64
	PruneSaving, SWSaving, HWSaving    float64
}

// Fig16 compares the zero-pruning baseline [31], pure-software DRS, and
// hardware DRS (with the CRM) on compression, speedup and energy saving.
func (s *Suite) Fig16() ([]Fig16Row, *report.Table) {
	rows := make([]Fig16Row, 0, 7)
	var avg Fig16Row
	// The zero-pruning configuration from the paper: ~37% data-movement
	// reduction under value+index CSR — 31.5% element density.
	const pruneDensity = 0.315
	for _, name := range BenchmarkNames() {
		e := s.Engine(name)
		prune := e.EvaluateZeroPrune(pruneDensity)
		hwCurve := s.Curve(name, sched.Intra)
		aoSet := hwCurve.AO()
		hw := s.Outcome(name, sched.Intra, aoSet)
		ai, aa := e.Thresholds(aoSet)
		sw := e.Evaluate(sched.IntraSW, ai, aa)

		skip := meanSkip(hw.Stats)
		r := Fig16Row{
			Benchmark:        name,
			PruneCompression: pruneDensity * 2, // value + index bytes
			DRSCompression:   0.25 + 0.75*(1-skip),
			PruneSpeedup:     prune.Speedup, SWSpeedup: sw.Speedup, HWSpeedup: hw.Speedup,
			PruneSaving: prune.EnergySaving, SWSaving: sw.EnergySaving, HWSaving: hw.EnergySaving,
		}
		rows = append(rows, r)
		avg.PruneCompression += r.PruneCompression
		avg.DRSCompression += r.DRSCompression
		avg.PruneSpeedup += r.PruneSpeedup
		avg.SWSpeedup += r.SWSpeedup
		avg.HWSpeedup += r.HWSpeedup
		avg.PruneSaving += r.PruneSaving
		avg.SWSaving += r.SWSaving
		avg.HWSaving += r.HWSaving
	}
	n := float64(len(rows))
	avg.Benchmark = "average"
	avg.PruneCompression /= n
	avg.DRSCompression /= n
	avg.PruneSpeedup /= n
	avg.SWSpeedup /= n
	avg.HWSpeedup /= n
	avg.PruneSaving /= n
	avg.SWSaving /= n
	avg.HWSaving /= n
	rows = append(rows, avg)

	t := report.NewTable("Fig. 16: weight compression schemes (zero-pruning vs software DRS vs hardware DRS)",
		"Benchmark", "prune bytes", "DRS bytes", "prune x", "sw-DRS x", "hw-DRS x",
		"prune E%", "sw E%", "hw E%")
	for _, r := range rows {
		t.AddRowf(r.Benchmark,
			report.Pct(r.PruneCompression), report.Pct(r.DRSCompression),
			fmt.Sprintf("%.2f", r.PruneSpeedup), fmt.Sprintf("%.2f", r.SWSpeedup),
			fmt.Sprintf("%.2f", r.HWSpeedup),
			fmt.Sprintf("%.1f", r.PruneSaving*100), fmt.Sprintf("%.1f", r.SWSaving*100),
			fmt.Sprintf("%.1f", r.HWSaving*100))
	}
	return rows, t
}

func meanSkip(stats []sched.LayerStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var s float64
	for _, st := range stats {
		s += st.SkipFrac
	}
	return s / float64(len(stats))
}

// Fig19 renders the full threshold sweep per application: speedup and
// accuracy of the combined optimizations across sets 0..10, with the AO
// and BPA points marked.
func (s *Suite) Fig19() (*report.Figure, *report.Figure, *report.Table) {
	speed := report.NewFigure("Fig. 19a: combined speedup vs threshold set", "set", "speedup")
	acc := report.NewFigure("Fig. 19b: accuracy vs threshold set", "set", "accuracy")
	marks := report.NewTable("Fig. 19: operating points", "Benchmark", "AO set", "AO speedup", "BPA set", "BPA speedup", "BPA acc")
	for _, name := range BenchmarkNames() {
		curve := s.Curve(name, sched.Combined)
		xs := make([]float64, len(curve))
		sp := make([]float64, len(curve))
		ac := make([]float64, len(curve))
		for i, p := range curve {
			xs[i] = float64(p.Set)
			sp[i] = p.Speedup
			ac[i] = p.Accuracy
		}
		speed.Add(name, xs, sp)
		acc.Add(name, xs, ac)
		ao, bpa := curve.AO(), curve.BPA()
		marks.AddRowf(name,
			fmt.Sprintf("%d", ao), report.X(curve.At(ao).Speedup),
			fmt.Sprintf("%d", bpa), report.X(curve.At(bpa).Speedup),
			fmt.Sprintf("%.3f", curve.At(bpa).Accuracy))
	}
	return speed, acc, marks
}

// Overheads reports the §VI-F overhead accounting measured from the
// simulated kernel streams.
func (s *Suite) Overheads() *report.Table {
	t := report.NewTable("§VI-F: measured overheads",
		"Benchmark", "inter perf ovh", "intra flow ovh", "CRM ovh")
	for _, name := range BenchmarkNames() {
		inter := s.AOOutcome(name, sched.Inter)
		intra := s.AOOutcome(name, sched.Intra)
		// Inter: relevance + predict kernels as share of optimized runtime.
		var interOvh float64
		if g := inter.Result.Group(kernels.NameRelevance); g != nil {
			interOvh += g.Cycles
		}
		if g := inter.Result.Group(kernels.NamePredict); g != nil {
			interOvh += g.Cycles
		}
		interOvh /= inter.Result.Cycles
		// Intra software-flow overhead: the DRS scan kernels plus the
		// extra launches of the split gemv, as share of runtime.
		var drsOvh float64
		if g := intra.Result.Group(kernels.NameDRS); g != nil {
			drsOvh += g.Cycles
		}
		drsOvh /= intra.Result.Cycles
		// CRM: the reorganization pipeline cycles (ExtraCycles of the
		// skipped gemv) as share of runtime.
		var crmOvh float64
		if g := intra.Result.Group(kernels.NameSgemvUfic); g != nil {
			crmOvh = float64(g.Launches) * estCRMCycles(s, name) / intra.Result.Cycles
		}
		t.AddRowf(name, report.Pct(interOvh), report.Pct(drsOvh), report.Pct(crmOvh))
	}
	return t
}

func estCRMCycles(s *Suite, name string) float64 {
	e := s.Engine(name)
	kb := kernels.NewBuilder(s.cfg.GPU)
	return kb.CRM().Reorganize(3*e.B.Hidden, 3*e.B.Hidden/2)
}

// RedundantLoadFactor returns the Fig. 5 blow-up factor for one benchmark
// (exposed for tests).
func (s *Suite) RedundantLoadFactor(name string) float64 {
	b, ok := model.ByName(name)
	if !ok {
		return 0
	}
	l2 := gpu.NewL2(s.cfg.GPU)
	uBytes := int64(16 * b.Hidden * b.Hidden)
	hBytes := int64(4 * b.Hidden)
	var loaded int64
	for cell := 0; cell < b.Length; cell++ {
		loaded += l2.AccessRange(0, uBytes) * s.cfg.GPU.L2LineBytes
		loaded += l2.AccessRange(uBytes+int64(cell)*hBytes, hBytes) * s.cfg.GPU.L2LineBytes
	}
	unique := uBytes + int64(b.Length)*hBytes
	return float64(loaded) / float64(unique)
}

// AverageOf extracts the averaged row from Fig14 rows (the last entry).
func AverageOf(rows []Fig14Row) Fig14Row {
	if len(rows) == 0 {
		return Fig14Row{}
	}
	return rows[len(rows)-1]
}
