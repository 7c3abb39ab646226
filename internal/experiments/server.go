package experiments

import (
	"fmt"

	"mobilstm/internal/core"
	"mobilstm/internal/model"
	"mobilstm/internal/report"
	"mobilstm/internal/sched"
)

// ServerContrast reproduces the §II-C observation that motivates the
// whole paper: a server GPU (Tesla M40) can pipeline layers along the
// wavefront with several layers' weights resident on chip, while the
// mobile GPU must run layers sequentially and re-load the united weight
// matrix every cell. The mobile optimizations close part of that gap
// on-device — without shipping the user's voice to the cloud.
func (s *Suite) ServerContrast(benchName string) *report.Table {
	b := mustLookup(benchName)
	t := report.NewTable(
		fmt.Sprintf("§II-C: server wavefront vs mobile execution (%s)", benchName),
		"Execution", "latency ms", "vs mobile baseline")

	mobileCfg := s.cfg.GPU
	mobileBase := s.Engine(benchName).Baseline().Result
	t.AddRowf(fmt.Sprintf("mobile baseline (%s)", mobileCfg.Name),
		fmt.Sprintf("%.2f", mobileBase.Seconds*1e3), "1.00x")

	mobileOpt := s.AOOutcome(benchName, sched.Combined).Result
	t.AddRowf("mobile combined optimizations (this paper)",
		fmt.Sprintf("%.2f", mobileOpt.Seconds*1e3),
		report.X(mobileBase.Seconds/mobileOpt.Seconds))

	server := sched.TeslaM40()
	noRes := sched.Wavefront(sched.WavefrontPlan{
		Cfg: server, Hidden: b.Hidden, Input: b.Hidden,
		Length: b.Length, Layers: b.Layers,
	})
	t.AddRowf(fmt.Sprintf("server wavefront, streaming weights (%s)", server.Name),
		fmt.Sprintf("%.2f", noRes.Seconds*1e3),
		report.X(mobileBase.Seconds/noRes.Seconds))

	// Persistent-RNN regime [50]: recurrent weights live in the register
	// files of the many SMs (256 KB each on Maxwell) plus shared memory
	// and L2 — the storage class a mobile GPU simply does not have.
	registerFileBytes := int64(server.SMs) * (256 << 10)
	res := sched.Wavefront(sched.WavefrontPlan{
		Cfg: server, Hidden: b.Hidden, Input: b.Hidden,
		Length: b.Length, Layers: b.Layers,
		ResidentBudgetBytes: registerFileBytes +
			server.SharedBytesPerSM*int64(server.SMs) + server.L2Bytes,
	})
	t.AddRowf(fmt.Sprintf("server wavefront, %d resident layers", res.ResidentLayers),
		fmt.Sprintf("%.2f", res.Seconds*1e3),
		report.X(mobileBase.Seconds/res.Seconds))
	return t
}

// GRUSweep evaluates the §II-B GRU adjustment across threshold sets for
// every zoo GRU benchmark: the same accuracy-vs-speedup trade-off as
// Fig. 19, with the lower DRS ceiling the carry-based skip implies.
func (s *Suite) GRUSweep() *report.Table {
	t := report.NewTable("§II-B extension: GRU combined optimizations across threshold sets",
		"Benchmark", "set", "speedup", "accuracy", "break rate", "skip frac")
	for _, b := range model.GRUZoo() {
		e := core.NewGRUEngine(b, model.GRUQuick(), s.cfg.GPU)
		for _, set := range []int{0, 2, 4, 6, 8, 10} {
			o := e.EvaluateSet(sched.Combined, set)
			st := o.MeanStats()
			t.AddRowf(b.Name, fmt.Sprintf("%d", set),
				report.X(o.Speedup), fmt.Sprintf("%.3f", o.Accuracy),
				fmt.Sprintf("%.2f", st.BreakRate), fmt.Sprintf("%.2f", st.SkipFrac))
		}
	}
	return t
}
