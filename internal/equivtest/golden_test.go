package equivtest_test

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/gru"
	"mobilstm/internal/intercell"
	"mobilstm/internal/lstm"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// The relative contracts (batch ≡ serial, run ≡ rerun) hold even when
// both sides drift together. These tests pin the absolute bits of one
// seeded, calibrated LSTM and GRU on the canonical chain: the logits in
// every mode, serial and batched (testdata/golden_logits.txt), and the
// structural decisions behind them — the collected predictors and the
// traces of the inter, intra and combined runs, which feed the
// simulator's break and skip rates without touching a logit
// (testdata/golden_traces.txt). A refactor of the forward path must
// leave both files untouched.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.txt from the current code")

const (
	goldenInput   = 20
	goldenHidden  = 40 // 2×16 + 8: exercises the chain's lanes and its serial tail
	goldenLayers  = 2
	goldenClasses = 5
)

// goldenSeqs draws count sequences of the given lengths.
func goldenSeqs(r *rng.RNG, lens ...int) [][]tensor.Vector {
	out := make([][]tensor.Vector, len(lens))
	for i, ln := range lens {
		xs := make([]tensor.Vector, ln)
		for t := range xs {
			v := tensor.NewVector(goldenInput)
			for j := range v {
				v[j] = r.NormF32(0, 1.5)
			}
			xs[t] = v
		}
		out[i] = xs
	}
	return out
}

func linkScale(l int) float64 { return 1 + 0.2*float64(l) }
func spreadFor(l int) float64 { return 1.2 + 0.4*float64(l) }
func bitsLine(v tensor.Vector) string {
	var sb strings.Builder
	for j, x := range v {
		if j > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%08x", math.Float32bits(x))
	}
	return sb.String()
}

type goldenMode struct {
	name string
	opt  recurrent.RunOptions
}

// goldenNet is one pinned network with its collected predictors and the
// four modes it runs in.
type goldenNet struct {
	kind  string
	net   equivtest.Net
	preds []intercell.Predictor
	modes []goldenMode
}

// goldenFixture builds the pinned networks and the sequences they run.
// The order of the rng splits is part of the pinned bits.
func goldenFixture() (batch [][]tensor.Vector, nets []goldenNet) {
	r := rng.New(0x601d)
	cal := goldenSeqs(r.Split(), 11, 13, 12)
	pred := goldenSeqs(r.Split(), 10, 15)
	batch = goldenSeqs(r.Split(), 9, 14, 6)

	ln := lstm.NewNetwork(goldenInput, goldenHidden, goldenLayers, goldenClasses)
	ln.InitRandom(r.Split(), linkScale, 0.5)
	lstm.Calibrate(ln, cal, spreadFor)
	lp := lstm.CollectPredictors(ln, pred)

	gn := gru.NewNetwork(goldenInput, goldenHidden, goldenLayers, goldenClasses)
	gn.InitRandom(r.Split(), linkScale, 0.5)
	gru.Calibrate(gn, cal, spreadFor)
	gp := gru.CollectPredictors(gn, pred)

	return batch, []goldenNet{
		{"lstm", ln, lp, goldenModes(lp, lstmAlphaInter, 0.12)},
		{"gru", gn, gp, goldenModes(gp, gruAlphaInter, 0.2)},
	}
}

// goldenModes returns baseline, inter, intra and combined.
func goldenModes(p []intercell.Predictor, alphaInter, alphaIntra float64) []goldenMode {
	return []goldenMode{
		{"baseline", recurrent.RunOptions{}},
		{"inter", recurrent.RunOptions{Inter: true, AlphaInter: alphaInter, MTS: 3, Predictors: p}},
		{"intra", recurrent.RunOptions{Intra: true, AlphaIntra: alphaIntra}},
		{"combined", recurrent.RunOptions{Inter: true, AlphaInter: alphaInter, MTS: 3, Predictors: p,
			Intra: true, AlphaIntra: alphaIntra}},
	}
}

// The inter-cell thresholds sit inside each network's relevance range,
// so the pinned runs both cut links (predicted-state recovery, tissue
// alignment) and keep links (state carried across cells).
const (
	lstmAlphaInter = 100
	gruAlphaInter  = 174
)

// trace runs xs under opt and returns the run's trace.
func trace(n equivtest.Net, xs []tensor.Vector, opt recurrent.RunOptions) *recurrent.Trace {
	opt.Trace = &recurrent.Trace{}
	n.Run(xs, opt)
	return opt.Trace
}

// requireMixedLinks fails unless the threshold cuts some but not all
// context links over the pinned sequences — otherwise the Inter lines
// would pin a degenerate flow.
func requireMixedLinks(t *testing.T, label string, n equivtest.Net, opt recurrent.RunOptions, seqs [][]tensor.Vector) {
	t.Helper()
	var breaks, links int
	for _, xs := range seqs {
		for _, lt := range trace(n, xs, opt).Layers {
			breaks += len(lt.Breakpoints)
			links += len(lt.Relevance)
		}
	}
	if breaks == 0 || breaks == links {
		t.Fatalf("%s: %d of %d links cut — the inter threshold no longer splits the relevance range", label, breaks, links)
	}
}

// goldenLogitLines computes every pinned logit line:
// "<kind>/<mode>/<entry> bits…".
func goldenLogitLines(t *testing.T) []string {
	batch, nets := goldenFixture()
	var lines []string
	for _, g := range nets {
		for _, m := range g.modes {
			if m.opt.Inter {
				requireMixedLinks(t, g.kind+"/"+m.name, g.net, m.opt, batch)
			}
			for i, xs := range batch {
				lines = append(lines, fmt.Sprintf("%s/%s/run%d %s", g.kind, m.name, i, bitsLine(g.net.Run(xs, m.opt))))
			}
			for i, v := range g.net.RunBatch(batch, m.opt) {
				lines = append(lines, fmt.Sprintf("%s/%s/batch%d %s", g.kind, m.name, i, bitsLine(v)))
			}
		}
	}
	return lines
}

// goldenTraceLines computes every pinned structural line: the
// predictors' bits per layer, then per optimized mode, sequence and
// layer the trace's relevance bits (float64), breakpoints, sub-layer
// and tissue sizes and skip counts. The baseline makes no structural
// decision and is not traced.
func goldenTraceLines(*testing.T) []string {
	batch, nets := goldenFixture()
	var lines []string
	for _, g := range nets {
		for li, p := range g.preds {
			lines = append(lines,
				fmt.Sprintf("%s/predictor%d/h %s", g.kind, li, bitsLine(p.H)),
				fmt.Sprintf("%s/predictor%d/c %s", g.kind, li, bitsLine(p.C)))
		}
		for _, m := range g.modes[1:] {
			for i, xs := range batch {
				for _, lt := range trace(g.net, xs, m.opt).Layers {
					rel := make([]string, len(lt.Relevance))
					for k, s := range lt.Relevance {
						rel[k] = fmt.Sprintf("%016x", math.Float64bits(s))
					}
					p := fmt.Sprintf("%s/%s/run%d/layer%d", g.kind, m.name, i, lt.Layer)
					lines = append(lines,
						fmt.Sprintf("%s/cells %d", p, lt.Cells),
						fmt.Sprintf("%s/relevance %v", p, rel),
						fmt.Sprintf("%s/breakpoints %v", p, lt.Breakpoints),
						fmt.Sprintf("%s/sublayers %v", p, lt.SublayerSizes),
						fmt.Sprintf("%s/tissues %v", p, lt.TissueSizes),
						fmt.Sprintf("%s/skips %v", p, lt.SkipCounts))
				}
			}
		}
	}
	return lines
}

// checkGolden compares the computed lines with testdata/name, or
// rewrites the file under -update-golden. The lines are computed on the
// canonical chain: a wide process default is switched to sse2, and a
// generic one stays, so that leg checks the pure-Go bodies.
func checkGolden(t *testing.T, name string, compute func(*testing.T) []string) {
	equivtest.UseChain(t, equivtest.Canonical())
	equivtest.Golden(t, name, compute(t), *updateGolden)
}

// TestMain fails the package if a test leaves the process-default
// kernel chain switched.
func TestMain(m *testing.M) { equivtest.Main(m) }

func TestGoldenLogitBits(t *testing.T) { checkGolden(t, "golden_logits.txt", goldenLogitLines) }

func TestGoldenTraces(t *testing.T) { checkGolden(t, "golden_traces.txt", goldenTraceLines) }
