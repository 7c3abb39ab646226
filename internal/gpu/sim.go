package gpu

import "sort"

// Simulator executes sequences of kernel launches against one platform
// configuration and aggregates time, traffic and stall statistics.
type Simulator struct {
	cfg Config
}

// NewSimulator returns a simulator for the given platform.
func NewSimulator(cfg Config) *Simulator { return &Simulator{cfg: cfg} }

// Config returns the platform configuration.
func (s *Simulator) Config() Config { return s.cfg }

// KernelGroup aggregates all launches of kernels sharing a name.
type KernelGroup struct {
	Name     string
	Launches int
	Cycles   float64
	// ComputeCycles, DRAMBytes etc. are summed over launches.
	ComputeCycles float64
	DRAMBytes     float64
	L2HitBytes    float64
	SharedBytes   float64
	FLOPs         float64
	Stalls        [numStallCauses]float64
	// DRAMUtil / SharedUtil are cycle-weighted means over the group's
	// launches.
	DRAMUtil   float64
	SharedUtil float64
}

// Result is the aggregate outcome of running a kernel sequence.
type Result struct {
	Cfg Config
	// Cycles and Seconds are end-to-end execution time (the kernels run
	// back-to-back, as in the cuDNN flow of Algorithm 1).
	Cycles  float64
	Seconds float64
	// Totals over all kernels.
	FLOPs       float64
	DRAMBytes   float64
	L2HitBytes  float64
	SharedBytes float64
	Launches    int
	Stalls      [numStallCauses]float64

	groups map[string]*KernelGroup
}

// Run simulates the kernel sequence and returns the aggregate result.
func (s *Simulator) Run(kernels []KernelSpec) *Result {
	res := &Result{Cfg: s.cfg, groups: make(map[string]*KernelGroup)}
	for _, k := range kernels {
		kr := simulateKernel(s.cfg, k)
		res.accumulate(kr)
	}
	res.Seconds = s.cfg.CyclesToSeconds(res.Cycles)
	return res
}

// Cycles returns the cycles one launch of k adds to Run's Result.Cycles.
// A launch's result is a pure function of its spec, so a caller that
// adds Cycles over a sequence in launch order, and converts the sum with
// Config().CyclesToSeconds, has Run's Seconds bit for bit without
// building the sequence.
func (s *Simulator) Cycles(k KernelSpec) float64 { return simulateKernel(s.cfg, k).Cycles }

// RunResults simulates the sequence and additionally returns the
// per-launch results, for callers that need kernel-level detail.
func (s *Simulator) RunResults(kernels []KernelSpec) (*Result, []KernelResult) {
	res := &Result{Cfg: s.cfg, groups: make(map[string]*KernelGroup)}
	out := make([]KernelResult, 0, len(kernels))
	for _, k := range kernels {
		kr := simulateKernel(s.cfg, k)
		res.accumulate(kr)
		out = append(out, kr)
	}
	res.Seconds = s.cfg.CyclesToSeconds(res.Cycles)
	return res, out
}

func (r *Result) accumulate(kr KernelResult) {
	r.Cycles += kr.Cycles
	r.FLOPs += kr.Spec.FLOPs
	r.DRAMBytes += kr.Spec.DRAMBytes
	r.L2HitBytes += kr.Spec.L2HitBytes
	r.SharedBytes += kr.Spec.SharedBytes
	r.Launches++
	for c := range kr.Stalls {
		r.Stalls[c] += kr.Stalls[c]
	}
	g := r.groups[kr.Spec.Name]
	if g == nil {
		g = &KernelGroup{Name: kr.Spec.Name}
		r.groups[kr.Spec.Name] = g
	}
	g.Launches++
	g.Cycles += kr.Cycles
	g.ComputeCycles += kr.ComputeCycles
	g.DRAMBytes += kr.Spec.DRAMBytes
	g.L2HitBytes += kr.Spec.L2HitBytes
	g.SharedBytes += kr.Spec.SharedBytes
	g.FLOPs += kr.Spec.FLOPs
	for c := range kr.Stalls {
		g.Stalls[c] += kr.Stalls[c]
	}
	// Cycle-weighted utilization means.
	g.DRAMUtil += kr.DRAMUtil * kr.Cycles
	g.SharedUtil += kr.SharedUtil * kr.Cycles
}

// Group returns the aggregate for kernels named name, or nil if none ran.
// Utilization fields are normalized to cycle-weighted means.
func (r *Result) Group(name string) *KernelGroup {
	g := r.groups[name]
	if g == nil {
		return nil
	}
	out := *g
	if g.Cycles > 0 {
		out.DRAMUtil = g.DRAMUtil / g.Cycles
		out.SharedUtil = g.SharedUtil / g.Cycles
	}
	return &out
}

// Groups returns all kernel groups sorted by descending cycles.
func (r *Result) Groups() []KernelGroup {
	out := make([]KernelGroup, 0, len(r.groups))
	for name := range r.groups {
		out = append(out, *r.Group(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

// StallFractions returns each cause's share of total stall cycles (summing
// to 1 when any stall occurred), indexed by StallCause.
func (r *Result) StallFractions() []float64 {
	var total float64
	for _, v := range r.Stalls {
		total += v
	}
	out := make([]float64, numStallCauses)
	if total == 0 {
		return out
	}
	for c, v := range r.Stalls {
		out[c] = v / total
	}
	return out
}

// StallFractionsOf returns the stall-cause shares within one kernel group,
// the quantity Fig. 4 plots for Sgemv.
func (r *Result) StallFractionsOf(name string) []float64 {
	out := make([]float64, numStallCauses)
	g := r.groups[name]
	if g == nil {
		return out
	}
	var total float64
	for _, v := range g.Stalls {
		total += v
	}
	if total == 0 {
		return out
	}
	for c, v := range g.Stalls {
		out[c] = v / total
	}
	return out
}

// CycleShareOf returns the fraction of end-to-end cycles spent in the
// named kernel group (the paper's ">90% in Sgemv" observation).
func (r *Result) CycleShareOf(name string) float64 {
	g := r.groups[name]
	if g == nil || r.Cycles == 0 {
		return 0
	}
	return g.Cycles / r.Cycles
}
