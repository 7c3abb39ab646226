package equivtest_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mobilstm/internal/gru"
	"mobilstm/internal/lstm"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// The relative contracts (batch ≡ serial, run ≡ rerun) hold even when
// both sides drift together. This test pins the absolute bits: the
// logits of one seeded, calibrated LSTM and GRU in every mode, serial
// and batched, on the canonical chain. A refactor of the forward path
// must leave testdata/golden_logits.txt untouched.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_logits.txt from the current code")

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

// goldenLines computes every pinned line: "<kind>/<mode>/<entry> bits…".
func goldenLines(t *testing.T) []string {
	r := rng.New(0x601d)
	cal := goldenSeqs(r.Split(), 11, 13, 12)
	pred := goldenSeqs(r.Split(), 10, 15)
	batch := goldenSeqs(r.Split(), 9, 14, 6)
	const chain = tensor.ChainSSE2 // canonical whatever the process default

	var lines []string
	emit := func(kind, mode string, run func([]tensor.Vector) tensor.Vector, runBatch func([][]tensor.Vector) []tensor.Vector) {
		for i, xs := range batch {
			lines = append(lines, fmt.Sprintf("%s/%s/run%d %s", kind, mode, i, bitsLine(run(xs))))
		}
		for i, v := range runBatch(batch) {
			lines = append(lines, fmt.Sprintf("%s/%s/batch%d %s", kind, mode, i, bitsLine(v)))
		}
	}

	ln := lstm.NewNetwork(goldenInput, goldenHidden, goldenLayers, goldenClasses)
	ln.InitRandom(r.Split(), linkScale, 0.5)
	lstm.Calibrate(ln, cal, spreadFor)
	lp := lstm.CollectPredictors(ln, pred)
	for _, m := range []struct {
		name string
		opt  lstm.RunOptions
	}{
		{"baseline", lstm.RunOptions{Chain: chain}},
		{"inter", lstm.RunOptions{Chain: chain, Inter: true, AlphaInter: lstmAlphaInter, MTS: 3, Predictors: lp}},
		{"intra", lstm.RunOptions{Chain: chain, Intra: true, AlphaIntra: 0.12}},
		{"combined", lstm.RunOptions{Chain: chain, Inter: true, AlphaInter: lstmAlphaInter, MTS: 3, Predictors: lp, Intra: true, AlphaIntra: 0.12}},
	} {
		opt := m.opt
		if opt.Inter {
			requireMixedLinks(t, "lstm/"+m.name, func(xs []tensor.Vector) (breaks, links int) {
				o := opt
				o.Trace = &lstm.Trace{}
				ln.Run(xs, o)
				for _, lt := range o.Trace.Layers {
					breaks += len(lt.Breakpoints)
					links += len(lt.Relevance)
				}
				return
			}, batch)
		}
		emit("lstm", m.name,
			func(xs []tensor.Vector) tensor.Vector { return ln.Run(xs, opt) },
			func(seqs [][]tensor.Vector) []tensor.Vector { return ln.RunBatch(seqs, opt) })
	}

	gn := gru.NewNetwork(goldenInput, goldenHidden, goldenLayers, goldenClasses)
	gn.InitRandom(r.Split(), linkScale, 0.5)
	gru.Calibrate(gn, cal, spreadFor)
	gp := gru.CollectPredictors(gn, pred)
	for _, m := range []struct {
		name string
		opt  gru.RunOptions
	}{
		{"baseline", gru.RunOptions{Chain: chain}},
		{"inter", gru.RunOptions{Chain: chain, Inter: true, AlphaInter: gruAlphaInter, MTS: 3, Predictors: gp}},
		{"intra", gru.RunOptions{Chain: chain, Intra: true, AlphaIntra: 0.2}},
		{"combined", gru.RunOptions{Chain: chain, Inter: true, AlphaInter: gruAlphaInter, MTS: 3, Predictors: gp, Intra: true, AlphaIntra: 0.2}},
	} {
		opt := m.opt
		if opt.Inter {
			requireMixedLinks(t, "gru/"+m.name, func(xs []tensor.Vector) (breaks, links int) {
				o := opt
				o.Trace = &gru.Trace{}
				gn.Run(xs, o)
				for _, lt := range o.Trace.Layers {
					breaks += len(lt.Breakpoints)
					links += len(lt.Relevance)
				}
				return
			}, batch)
		}
		emit("gru", m.name,
			func(xs []tensor.Vector) tensor.Vector { return gn.Run(xs, opt) },
			func(seqs [][]tensor.Vector) []tensor.Vector { return gn.RunBatch(seqs, opt) })
	}
	return lines
}

// The inter-cell thresholds sit inside each network's relevance range,
// so the pinned runs both cut links (predicted-state recovery, tissue
// alignment) and keep links (state carried across cells).
const (
	lstmAlphaInter = 100
	gruAlphaInter  = 174
)

// requireMixedLinks fails unless the threshold cuts some but not all
// context links over the pinned sequences — otherwise the Inter lines
// would pin a degenerate flow.
func requireMixedLinks(t *testing.T, label string, count func([]tensor.Vector) (breaks, links int), seqs [][]tensor.Vector) {
	t.Helper()
	var breaks, links int
	for _, xs := range seqs {
		b, l := count(xs)
		breaks += b
		links += l
	}
	if breaks == 0 || breaks == links {
		t.Fatalf("%s: %d of %d links cut — the inter threshold no longer splits the relevance range", label, breaks, links)
	}
}

func TestGoldenLogitBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are recorded on amd64; other architectures may contract float32 multiply-adds")
	}
	path := filepath.Join("testdata", "golden_logits.txt")
	got := goldenLines(t)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines computed, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d drifted from the golden bits:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
