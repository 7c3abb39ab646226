package experiments

import (
	"fmt"

	"mobilstm/internal/core"
	"mobilstm/internal/model"
	"mobilstm/internal/report"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/userstudy"
)

// Fig17 reproduces the model-capacity sensitivity study (§VI-D): the
// combined optimizations' performance-accuracy trade-off for BABI with
// (a) hidden sizes 128/256/512 at the paper's input length, and (b) input
// lengths 43/86/172 at the paper's hidden size. Each line is one
// (hidden - length) configuration's accuracy->speedup curve.
func (s *Suite) Fig17() *report.Figure {
	fig := report.NewFigure("Fig. 17: BABI performance-accuracy trade-offs vs model capacity",
		"accuracy", "speedup")
	base, _ := model.ByName("BABI")
	variants := []struct {
		hidden, length int
	}{
		{128, base.Length}, {256, base.Length}, {512, base.Length},
		{base.Hidden, 43}, {base.Hidden, 172},
	}
	for _, v := range variants {
		b := base
		b.Hidden = v.hidden
		b.Length = v.length
		b.Name = fmt.Sprintf("BABI-%d-%d", v.hidden, v.length)
		b.Seed = base.Seed ^ uint64(v.hidden*31+v.length)
		e := core.NewEngine(b, s.cfg.Profile, s.cfg.GPU)
		e.EnergyP = s.cfg.Energy
		accs := make([]float64, 0, core.ThresholdSets)
		speeds := make([]float64, 0, core.ThresholdSets)
		for _, o := range e.Sweep(sched.Combined) {
			accs = append(accs, o.Accuracy)
			speeds = append(speeds, o.Speedup)
		}
		fig.Add(fmt.Sprintf("(%d-%d)", v.hidden, v.length), accs, speeds)
	}
	return fig
}

// Fig18 renders the user study (UserStudyResults): each application's
// mean satisfaction per scheme, and the average over applications.
func (s *Suite) Fig18() *report.Table {
	t := report.NewTable("Fig. 18: user satisfaction score (1-5) per scheme",
		"Benchmark", "baseline", "AO", "BPA", "UO", "mean UO set")
	totals := map[userstudy.Scheme]float64{}
	results := s.UserStudyResults()
	for _, res := range results {
		t.AddRowf(res.App,
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeBaseline]),
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeAO]),
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeBPA]),
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeUO]),
			fmt.Sprintf("%.1f", res.ChosenUOSet))
		for _, scheme := range userstudy.Schemes() {
			totals[scheme] += res.Scores[scheme]
		}
	}
	n := float64(len(results))
	t.AddRowf("average",
		fmt.Sprintf("%.2f", totals[userstudy.SchemeBaseline]/n),
		fmt.Sprintf("%.2f", totals[userstudy.SchemeAO]/n),
		fmt.Sprintf("%.2f", totals[userstudy.SchemeBPA]/n),
		fmt.Sprintf("%.2f", totals[userstudy.SchemeUO]/n),
		"")
	return t
}

// UserStudyResults runs the user study (§VI-E): a simulated panel of 30
// participants rates 100 replays per application, over its combined-mode
// trade-off curve, under the baseline, AO, BPA and UO schemes.
func (s *Suite) UserStudyResults() []userstudy.Result {
	r := rng.New(0x57ed)
	panel := userstudy.Panel(30, r.Split())
	out := make([]userstudy.Result, 0, len(BenchmarkNames()))
	for _, name := range BenchmarkNames() {
		curve := s.Curve(name, sched.Combined)
		out = append(out, userstudy.Run(name, curve, panel, 100, r.Split()))
	}
	return out
}
