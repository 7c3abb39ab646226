package mobilstm_test

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"mobilstm"
	"mobilstm/internal/equivtest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.txt from the current code")

// TestGoldenGRUSweep pins the GRU facade's sweep (testdata/golden_gru_sweep.txt):
// set, speedup, accuracy, skip fraction and break rate as exact float64
// bits for KWS-GRU and QA-GRU at sets 0..10. The GRU runs the LSTM's
// engine, calibration and lowering, so a change to any of them that
// moves a GRU figure shows here.
func TestGoldenGRUSweep(t *testing.T) {
	equivtest.UseChain(t, equivtest.Canonical())
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var lines []string
	for _, name := range []string{"KWS-GRU", "QA-GRU"} {
		sys, err := mobilstm.OpenGRU(name)
		if err != nil {
			t.Fatal(err)
		}
		for set := 0; set <= 10; set++ {
			o := sys.Evaluate(set)
			lines = append(lines, fmt.Sprintf("%s/set%d set %d speedup %s accuracy %s skip %s break %s",
				name, set, o.Set, bits(o.Speedup), bits(o.Accuracy), bits(o.SkipFraction), bits(o.BreakRate)))
		}
	}
	equivtest.Golden(t, "golden_gru_sweep.txt", lines, *updateGolden)
}
