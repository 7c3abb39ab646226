// Command userstudy runs the simulated 30-participant study (§VI-E) for
// one or all benchmarks, printing the Fig. 18 satisfaction scores per
// scheme.
package main

import (
	"flag"
	"fmt"
	"log"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/report"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/userstudy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("userstudy: ")
	bench := flag.String("bench", "", "benchmark name (default: all)")
	participants := flag.Int("participants", 30, "panel size")
	replays := flag.Int("replays", 100, "replays per participant per application")
	seed := flag.Uint64("seed", 0x57ed, "panel seed")
	flag.Parse()

	names := []string{}
	if *bench != "" {
		names = append(names, *bench)
	} else {
		for _, b := range model.Zoo() {
			names = append(names, b.Name)
		}
	}

	r := rng.New(*seed)
	panel := userstudy.Panel(*participants, r.Split())
	t := report.NewTable("Fig. 18: user satisfaction (1-5)",
		"Benchmark", "baseline", "AO", "BPA", "UO", "mean UO set")
	for _, name := range names {
		b, ok := model.ByName(name)
		if !ok {
			log.Fatalf("unknown benchmark %q", name)
		}
		e := core.NewEngine(b, model.Quick(), gpu.TegraX1())
		curve := core.Curve(e.Sweep(sched.Combined))
		res := userstudy.Run(name, curve, panel, *replays, r.Split())
		t.AddRowf(name,
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeBaseline]),
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeAO]),
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeBPA]),
			fmt.Sprintf("%.2f", res.Scores[userstudy.SchemeUO]),
			fmt.Sprintf("%.1f", res.ChosenUOSet))
	}
	fmt.Println(t)
}
