// Command replay emulates the paper's user-study replay program (§VI-E):
// it replays pre-produced query outcomes for one application under a
// chosen scheme, showing each response's latency and whether the
// approximated output matched the exact one, and ends with the
// satisfaction score a configurable participant would assign.
//
//	replay -bench BABI -scheme AO -replays 25
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/userstudy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("replay: ")
	bench := flag.String("bench", "BABI", "benchmark name")
	scheme := flag.String("scheme", "AO", "baseline | AO | BPA | UO")
	replays := flag.Int("replays", 25, "number of replays")
	prefAcc := flag.Float64("pref", 0.98, "UO: the user's preferred accuracy")
	seed := flag.Uint64("seed", 1, "replay seed")
	flag.Parse()

	b, ok := model.ByName(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q", *bench)
	}
	e := core.NewEngine(b, model.Quick(), gpu.TegraX1())
	curve := core.Curve(e.Sweep(sched.Combined))

	var set int
	switch strings.ToUpper(*scheme) {
	case "BASELINE":
		set = 0
	case "AO":
		set = curve.AO()
	case "BPA":
		set = curve.BPA()
	case "UO":
		set = curve.LargestWithAccuracy(*prefAcc)
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}
	pt := curve.At(set)
	base := curve.At(0)
	baseMs := e.Baseline().Result.Seconds * 1e3
	delayMs := baseMs / pt.Speedup

	fmt.Printf("%s under scheme %s (threshold set %d): %.2f ms per response, %.1f%% accuracy\n\n",
		b.Name, strings.ToUpper(*scheme), set, delayMs, pt.Accuracy*100)

	r := rng.New(*seed)
	correct := 0
	for i := 1; i <= *replays; i++ {
		ok := r.Float64() < pt.Accuracy
		mark := "ok"
		if !ok {
			mark = "MISMATCH vs exact output"
		}
		if ok {
			correct++
		}
		fmt.Printf("replay %3d: %7.2f ms   %s\n", i, delayMs, mark)
	}
	fmt.Printf("\n%d/%d responses matched the exact flow\n", correct, *replays)

	p := userstudy.Participant{DelayWeight: 1.2, ErrWeight: 25, JND: 0.02, PrefAccuracy: *prefAcc}
	score := p.Expected(delayMs/baseMs, pt.Accuracy)
	if score < 1 {
		score = 1
	}
	if score > 5 {
		score = 5
	}
	fmt.Printf("a typical participant would rate this %.1f / 5 (baseline reference: %.1f)\n",
		score, p.Expected(1, base.Accuracy))
}
