// Command tradeoff sweeps the 11 threshold sets for one benchmark and
// mode, printing the speedup / energy / accuracy curve with the AO and
// BPA operating points marked (§VI-C, Fig. 19).
package main

import (
	"flag"
	"fmt"
	"log"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/report"
	"mobilstm/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tradeoff: ")
	bench := flag.String("bench", "BABI", "benchmark name")
	modeName := flag.String("mode", "combined", "inter | intra | combined")
	full := flag.Bool("full", false, "use full Table II shapes for the numeric pipeline")
	flag.Parse()

	b, ok := model.ByName(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q", *bench)
	}
	var mode sched.Mode
	switch *modeName {
	case "inter":
		mode = sched.Inter
	case "intra":
		mode = sched.Intra
	case "combined":
		mode = sched.Combined
	default:
		log.Fatalf("unknown mode %q", *modeName)
	}
	prof := model.Quick()
	if *full {
		prof = model.Full()
	}

	e := core.NewEngine(b, prof, gpu.TegraX1())
	curve := core.Curve(e.Sweep(mode))
	t := report.NewTable(
		fmt.Sprintf("%s / %v: performance-accuracy trade-off", b.Name, mode),
		"set", "alpha_inter", "alpha_intra", "speedup", "energy saving", "accuracy")
	for _, p := range curve {
		ai, aa := e.Thresholds(p.Set)
		t.AddRowf(fmt.Sprintf("%d", p.Set),
			fmt.Sprintf("%.1f", ai), fmt.Sprintf("%.3f", aa),
			report.X(p.Speedup), report.Pct(p.EnergySaving), fmt.Sprintf("%.3f", p.Accuracy))
	}
	fmt.Println(t)
	ao, bpa := curve.AO(), curve.BPA()
	fmt.Printf("AO  (accuracy-oriented, loss <= 2%%): set %d — %s at %.1f%% accuracy\n",
		ao, report.X(curve.At(ao).Speedup), curve.At(ao).Accuracy*100)
	fmt.Printf("BPA (max speedup x accuracy):        set %d — %s at %.1f%% accuracy\n",
		bpa, report.X(curve.At(bpa).Speedup), curve.At(bpa).Accuracy*100)
}
