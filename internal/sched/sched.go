// Package sched lowers a recurrent (LSTM or GRU) execution plan to the
// GPU kernel sequence the paper's flows launch, replaying the
// structural decisions measured by the numeric pipeline (breakpoints,
// tissue layout, skip rates) on the platform model — the same division
// of labor as the paper's PyTorch-produces / DeepBench-replays
// methodology (Fig. 13).
package sched

import (
	"fmt"

	"mobilstm/internal/gpu"
	"mobilstm/internal/intercell"
	"mobilstm/internal/kernels"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// Mode selects the execution flow.
type Mode int

const (
	// Baseline is the state-of-the-art cuDNN-style flow (Algorithm 1).
	Baseline Mode = iota
	// Inter applies only the inter-cell tissue optimization (§IV).
	Inter
	// Intra applies only hardware Dynamic Row Skip (§V, Algorithm 3).
	Intra
	// Combined applies both (the paper's "overall system").
	Combined
	// IntraSW is DRS without the CRM — the pure-software comparison of
	// Fig. 16.
	IntraSW
	// ZeroPrune is the element-granularity weight-pruning baseline [31].
	ZeroPrune
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case Inter:
		return "inter-cell"
	case Intra:
		return "intra-cell"
	case Combined:
		return "combined"
	case IntraSW:
		return "intra-cell-sw"
	case ZeroPrune:
		return "zero-pruning"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// LayerStats carries the structural statistics of one layer measured by
// the numeric pipeline under given thresholds.
type LayerStats struct {
	// BreakRate is the probability that a context link falls below
	// alpha_inter (breaks per link).
	BreakRate float64
	// SkipFrac is the mean fraction of hidden rows skipped per execution
	// unit (cell, or tissue intersection in combined mode).
	SkipFrac float64
}

// Plan is a fully-specified execution to lower.
type Plan struct {
	Cfg  gpu.Config
	Mode Mode
	// Full Table II shapes.
	Hidden, Input, Length, Layers int
	// Cell supplies the cell's block counts (Gates, First, State); its
	// sizes are ignored. The zero value is the LSTM.
	Cell recurrent.Shape
	// MTS bounds tissue sizes (Inter/Combined).
	MTS int
	// Stats holds per-layer structural statistics (Inter/Intra/Combined);
	// len must equal Layers for those modes.
	Stats []LayerStats
	// PruneDensity is the surviving element fraction (ZeroPrune).
	PruneDensity float64
	// Seed drives the synthesis of per-layer breakpoint positions from
	// BreakRate.
	Seed uint64
}

// Kernels lowers the plan to its kernel launch sequence. The sequence is
// also the wall-clock order: recurrent layers execute sequentially on
// mobile GPUs (§II-C).
func Kernels(p Plan) []gpu.KernelSpec {
	if err := p.validate(); err != nil {
		tensor.Panicf("sched: invalid plan: %v", err)
	}
	cell := kernels.LSTM
	if p.Cell.Gates != 0 {
		cell = kernels.Cell{Gates: p.Cell.Gates, First: p.Cell.First, State: p.Cell.State}
	}
	b := kernels.NewCellBuilder(p.Cfg, cell)
	// The DRS-skippable second stage: skip fractions are of its rows,
	// and the trivial-row list R has one entry per skipped hidden unit.
	second := cell.Gates - cell.First
	r := rng.New(p.Seed ^ 0x9d5c)
	var out []gpu.KernelSpec

	for layer := 0; layer < p.Layers; layer++ {
		in := p.Hidden
		if layer == 0 {
			in = p.Input
		}
		out = append(out, b.SgemmWx(p.Hidden, in, p.Length))

		var st LayerStats
		if len(p.Stats) > 0 {
			st = p.Stats[layer]
		}
		switch p.Mode {
		case Baseline:
			for t := 0; t < p.Length; t++ {
				out = append(out, b.SgemvU(p.Hidden), b.EW(p.Hidden, 1))
			}
		case ZeroPrune:
			for t := 0; t < p.Length; t++ {
				out = append(out, b.PrunedSgemv(p.Hidden, p.PruneDensity), b.EW(p.Hidden, 1))
			}
		case Intra, IntraSW:
			mode := kernels.DRSHardware
			if p.Mode == IntraSW {
				mode = kernels.DRSSoftware
			}
			skipRows := int(st.SkipFrac * float64(second*p.Hidden))
			trivial := skipRows / second
			for t := 0; t < p.Length; t++ {
				out = append(out,
					b.SgemvUo(p.Hidden),
					b.EWPartial(p.Hidden, 1, cell.First),
					b.DRS(p.Hidden, trivial),
					b.SgemvUfic(p.Hidden, skipRows, mode),
					b.EWPartial(p.Hidden, 1, second),
				)
			}
		case Inter, Combined:
			tissues, breaks := synthesizeTissues(r, p.Length, st.BreakRate, p.MTS)
			out = append(out,
				b.Relevance(p.Hidden, p.Length),
				b.Predict(p.Hidden, breaks),
			)
			for _, size := range tissues {
				if p.Mode == Inter {
					k, _ := b.SgemmTissue(p.Hidden, size)
					out = append(out, k, b.EW(p.Hidden, size))
					continue
				}
				skipRows := int(st.SkipFrac * float64(second*p.Hidden))
				trivial := skipRows / second
				kuo, _ := b.SgemmTissueUo(p.Hidden, size)
				kfic, _ := b.SgemmTissueUfic(p.Hidden, size, skipRows)
				out = append(out,
					kuo,
					b.EWPartial(p.Hidden, size, cell.First),
					b.DRS(p.Hidden, trivial),
					kfic,
					b.EWPartial(p.Hidden, size, second),
				)
			}
		}
	}
	return out
}

func (p Plan) validate() error {
	if p.Hidden < 1 || p.Input < 1 || p.Length < 1 || p.Layers < 1 {
		return fmt.Errorf("sched: invalid shape %+v", p)
	}
	switch p.Mode {
	case Inter, Combined:
		if p.MTS < 1 {
			return fmt.Errorf("sched: mode %v requires MTS", p.Mode)
		}
		fallthrough
	case Intra, IntraSW:
		if len(p.Stats) != p.Layers {
			return fmt.Errorf("sched: mode %v requires %d layer stats, got %d", p.Mode, p.Layers, len(p.Stats))
		}
	case ZeroPrune:
		if p.PruneDensity <= 0 || p.PruneDensity > 1 {
			return fmt.Errorf("sched: zero-prune requires density in (0,1], got %g", p.PruneDensity)
		}
	}
	return nil
}

// synthesizeTissues draws breakpoint positions from the measured per-link
// break rate, divides the layer, and aligns tissues under the MTS —
// returning the tissue size sequence the GPU executes and the number of
// breakpoints (each needing one predicted-link injection).
func synthesizeTissues(r *rng.RNG, n int, breakRate float64, mts int) ([]int, int) {
	var breaks []int
	for t := 1; t < n; t++ {
		if r.Bernoulli(breakRate) {
			breaks = append(breaks, t)
		}
	}
	subs := intercell.Sublayers(n, breaks)
	tissues := intercell.AlignTissues(subs, mts)
	return intercell.TissueSizes(tissues), len(breaks)
}
