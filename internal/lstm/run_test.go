package lstm

import (
	"math"
	"runtime"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/intercell"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// zeroPredictors returns zero-vector predictors for every layer.
func zeroPredictors(n *Network) []intercell.Predictor {
	return equivtest.ZeroPredictors(len(n.Layers), n.Hidden())
}

func maxDiff(a, b tensor.Vector) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i] - b[i])); v > d {
			d = v
		}
	}
	return d
}

func TestInterAlphaZeroMatchesBaseline(t *testing.T) {
	// With alpha_inter = 0 no link is ever broken, so the tissue-parallel
	// flow must be numerically identical to the baseline.
	n := testNet(t, 12, 12, 2, 3, 21)
	xs := testSeqs(rng.New(22), 12, 15, 1)[0]
	base := n.Run(xs, Baseline())
	opt := n.Run(xs, RunOptions{Inter: true, AlphaInter: 0, MTS: 4, Predictors: zeroPredictors(n)})
	if d := maxDiff(base, opt); d > 1e-5 {
		t.Fatalf("inter(alpha=0) differs from baseline by %v", d)
	}
}

func TestIntraAlphaZeroMatchesBaseline(t *testing.T) {
	n := testNet(t, 12, 12, 2, 3, 23)
	xs := testSeqs(rng.New(24), 12, 15, 1)[0]
	base := n.Run(xs, Baseline())
	opt := n.Run(xs, RunOptions{Intra: true, AlphaIntra: 0})
	if d := maxDiff(base, opt); d > 1e-5 {
		t.Fatalf("intra(alpha=0) differs from baseline by %v", d)
	}
}

func TestIntraSkipsProduceZeros(t *testing.T) {
	// With a huge DRS threshold every row is trivial: all h become 0 and
	// the logits collapse to the head bias.
	n := testNet(t, 8, 8, 1, 2, 25)
	xs := testSeqs(rng.New(26), 8, 5, 1)[0]
	out := n.Run(xs, RunOptions{Intra: true, AlphaIntra: 2})
	for j := range out {
		if math.Abs(float64(out[j]-n.HeadBias[j])) > 1e-6 {
			t.Fatalf("logit %d = %v, want bias %v", j, out[j], n.HeadBias[j])
		}
	}
}

func TestIntraAccuracyDegradesMonotonically(t *testing.T) {
	// Coarser DRS thresholds may only move the output further from the
	// exact result (on average across a few inputs).
	n := testNet(t, 16, 16, 1, 4, 27)
	seqs := testSeqs(rng.New(28), 16, 12, 6)
	var prev float64 = -1
	for _, alpha := range []float64{0.05, 0.3, 0.8} {
		var dist float64
		for _, xs := range seqs {
			base := n.Run(xs, Baseline())
			opt := n.Run(xs, RunOptions{Intra: true, AlphaIntra: alpha})
			dist += maxDiff(base, opt)
		}
		if dist < prev-1e-6 {
			t.Fatalf("output distance decreased with larger alpha: %v -> %v", prev, dist)
		}
		prev = dist
	}
}

func TestTraceCollectsStructure(t *testing.T) {
	n := testNet(t, 12, 12, 2, 3, 29)
	xs := testSeqs(rng.New(30), 12, 15, 1)[0]
	tr := &Trace{}
	n.Run(xs, RunOptions{
		Inter: true, AlphaInter: 1e9, MTS: 4, Predictors: zeroPredictors(n),
		Intra: true, AlphaIntra: 0.1,
		Trace: tr,
	})
	if len(tr.Layers) != 2 {
		t.Fatalf("trace layers: %d", len(tr.Layers))
	}
	lt := tr.Layers[0]
	if lt.Cells != 15 {
		t.Fatalf("cells: %d", lt.Cells)
	}
	if len(lt.Relevance) != 14 {
		t.Fatalf("relevance entries: %d", len(lt.Relevance))
	}
	// alpha = +inf: every link broken.
	if len(lt.Breakpoints) != 14 {
		t.Fatalf("breakpoints: %d", len(lt.Breakpoints))
	}
	if lt.Sublayers() != 15 {
		t.Fatalf("sublayers: %d", lt.Sublayers())
	}
	for _, sz := range lt.TissueSizes {
		if sz > 4 {
			t.Fatalf("tissue above MTS: %d", sz)
		}
	}
	if len(lt.SkipCounts) != len(lt.TissueSizes) {
		t.Fatalf("skip counts %d for %d tissues", len(lt.SkipCounts), len(lt.TissueSizes))
	}
	for k, c := range lt.SkipCounts {
		if c < 0 || c > 12 {
			t.Fatalf("tissue %d skips %d of 12 rows", k, c)
		}
	}
}

func TestFullDivisionStillClassifies(t *testing.T) {
	// Even with every link broken and predicted links injected, the
	// network must produce finite logits.
	n := testNet(t, 12, 12, 2, 3, 31)
	seqs := testSeqs(rng.New(32), 12, 15, 2)
	preds := CollectPredictors(n, seqs[:1])
	out := n.Run(seqs[1], RunOptions{Inter: true, AlphaInter: 1e9, MTS: 5, Predictors: preds})
	for _, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite logit: %v", v)
		}
	}
}

func TestCollectPredictorsMatchesBaselineStats(t *testing.T) {
	// The predictor must be the mean of the exact flow's (h, c) pairs:
	// for a single sequence and single layer, verify against a manual
	// accumulation via LinkStats on an identical exact run.
	n := testNet(t, 8, 8, 1, 2, 33)
	seqs := testSeqs(rng.New(34), 8, 10, 1)
	preds := CollectPredictors(n, seqs)
	if len(preds) != 1 {
		t.Fatalf("predictors: %d", len(preds))
	}
	// The mean |h| should be bounded by 1.
	for _, v := range preds[0].H {
		if v < -1 || v > 1 {
			t.Fatalf("predicted h element %v out of range", v)
		}
	}
	// And not all-zero (the network does produce activity).
	if maxAbs(preds[0].H) == 0 && maxAbs(preds[0].C) == 0 {
		t.Fatal("predictor is identically zero")
	}
}

func TestInterBreaksReduceCoupling(t *testing.T) {
	// Changing the first token must not affect cells after a broken
	// link. Force full division; then the final cell's output depends
	// only on its own input and the predicted link.
	n := testNet(t, 8, 8, 1, 8, 35)
	// Identity head to observe h directly.
	for i := range n.Head.Data {
		n.Head.Data[i] = 0
	}
	for j := 0; j < 8; j++ {
		n.Head.Set(j, j, 1)
		n.HeadBias[j] = 0
	}
	seqs := testSeqs(rng.New(36), 8, 6, 2)
	a, b := seqs[0], seqs[1]
	// b differs from a only in tokens 0..4; last token identical.
	b[5] = a[5]
	opts := RunOptions{Inter: true, AlphaInter: 1e9, MTS: 1, Predictors: zeroPredictors(n)}
	ha := n.Run(a, opts)
	hb := n.Run(b, opts)
	if d := maxDiff(ha, hb); d > 1e-6 {
		t.Fatalf("fully divided layer still couples cells: %v", d)
	}
}

// maxAbs returns max_i |v[i]|, or 0 for an empty vector.
func maxAbs(v tensor.Vector) float32 {
	var m float32
	for _, x := range v {
		m = max(m, x, -x)
	}
	return m
}

// TestRunEErrors: the serving-path entry points (RunWavefrontE, the
// lone-request forward serve calls, and ClassifyE) convert every Panicf
// validation (empty sequence, missing MTS, predictor mismatch) into an
// error, and the happy path matches Run exactly.
func TestRunEErrors(t *testing.T) {
	n := testNet(t, 8, 8, 2, 3, 31)
	xs := testSeqs(rng.New(32), 8, 6, 1)[0]

	cases := []struct {
		name string
		xs   []tensor.Vector
		opt  RunOptions
	}{
		{"empty sequence", nil, Baseline()},
		{"inter without MTS", xs, RunOptions{Inter: true, Predictors: zeroPredictors(n)}},
		{"predictor mismatch", xs, RunOptions{Inter: true, MTS: 4,
			Predictors: zeroPredictors(n)[:1]}},
	}
	for _, c := range cases {
		if _, _, err := n.RunWavefrontE(c.xs, c.opt); err == nil {
			t.Errorf("%s: no error", c.name)
		}
		if _, err := n.ClassifyE(c.xs, c.opt); err == nil {
			t.Errorf("%s: ClassifyE no error", c.name)
		}
	}

	logits, _, err := n.RunWavefrontE(xs, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(logits, n.Run(xs, Baseline())); d != 0 {
		t.Fatalf("RunWavefrontE differs from Run by %v", d)
	}
	class, err := n.ClassifyE(xs, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if class != n.Classify(xs, Baseline()) {
		t.Fatal("ClassifyE differs from Classify")
	}
}

// TestGuardPassesForeignPanics: tensor.Guard only converts the typed
// Panicf violation; any other panic keeps propagating.
func TestGuardPassesForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed by Guard")
		}
	}()
	func() (err error) {
		defer tensor.Guard(&err)
		var m map[int]int
		m[0] = 1 // runtime panic, not a Panicf violation
		return nil
	}()
}

// TestRunBatchAllocsAtOneProc pins the allocation counts of a serial
// (GOMAXPROCS 1) Run and B=1 RunBatch — the same layer loop — at their
// measured value: a kernel that forks no shard must allocate nothing,
// and the arena comes from the layer's pool, so the 3 are the member
// lengths, the output slice and the logits. One heap object per kernel
// call would add 2 layers × (1 W·x GEMM + 15 steps × 2 recurrent
// stages), and an arena allocated per call arenaAllocs. A B=4 RunBatch
// makes 6 (four logits). Under Intra, whose every step computes its
// group's second-stage W·x over the union of the members' kept rows, it
// makes exactly the allocations of a B=4 Baseline one: the union lists
// live in the arena. Under the race detector each bound grows by
// poolSlack, and the Intra and Baseline counts, which then depend on
// which arenas the pool dropped, are not compared; `make alloc-pins`
// runs the exact counts without the detector.
func TestRunBatchAllocsAtOneProc(t *testing.T) {
	slack := poolSlack(1)
	wantRun, wantBatch, wantBatch4 := 3+slack, 3+slack, 6+slack
	n := testNet(t, 12, 12, 2, 3, 27)
	seqs := testSeqs(rng.New(28), 12, 15, 4)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var batch4 [2]float64
	for i, opt := range []RunOptions{Baseline(), {Intra: true, AlphaIntra: 0.1}} {
		if got := testing.AllocsPerRun(20, func() { n.Run(seqs[0], opt) }); got > wantRun {
			t.Errorf("intra=%v: Run makes %v allocs at GOMAXPROCS 1, want <= %v", opt.Intra, got, wantRun)
		}
		if got := testing.AllocsPerRun(20, func() { n.RunBatch(seqs[:1], opt) }); got > wantBatch {
			t.Errorf("intra=%v: RunBatch B=1 makes %v allocs at GOMAXPROCS 1, want <= %v", opt.Intra, got, wantBatch)
		}
		batch4[i] = testing.AllocsPerRun(20, func() { n.RunBatch(seqs, opt) })
		if batch4[i] > wantBatch4 {
			t.Errorf("intra=%v: RunBatch B=4 makes %v allocs at GOMAXPROCS 1, want <= %v", opt.Intra, batch4[i], wantBatch4)
		}
	}
	if !equivtest.RaceEnabled && batch4[1] != batch4[0] {
		t.Errorf("RunBatch B=4 makes %v allocs under Intra and %v under Baseline at GOMAXPROCS 1", batch4[1], batch4[0])
	}
}

// arenaAllocs is what a forward arena costs a pass that allocates it
// instead of taking it from its layer's pool: the arena and its seven
// slabs.
const arenaAllocs = 8

// poolSlack is the allocation bound's headroom for a pass that takes
// the given number of arenas. Without the race detector it is none.
// Under it, where sync.Pool drops a random quarter of the values put
// back, it is an arena allocated for every layer pool on every call:
// each bound is then about what a pass allocated before arenas were
// pooled (Run 11, the wavefront 39), and still fails a kernel, or a
// cell or chunk of the path, that allocates per call.
func poolSlack(arenas int) float64 {
	if equivtest.RaceEnabled {
		return float64(arenas * arenaAllocs)
	}
	return 0
}

// TestWavefrontAllocsDoNotGrowWithT pins the allocation count of a
// three-layer RunWavefrontE at its measured value, at every sequence
// length: the per-layer tables (arena pointers, outputs, channels,
// panics), each layer's chunk channel, the helper goroutines and their
// join, and the logits. No arena: each layer's comes from its pool,
// where an arena per call would add arenaAllocs per layer. Nothing per
// chunk or per cell: a chunk's W·x view is re-headed once per layer,
// and a chunk's token is a buffered send. Under the race detector the
// bound grows by poolSlack for the three layers.
func TestWavefrontAllocsDoNotGrowWithT(t *testing.T) {
	want := 15 + poolSlack(3)
	n := testNet(t, 12, 12, 3, 3, 29)
	for _, opt := range []RunOptions{Baseline(), {Intra: true, AlphaIntra: 0.1}} {
		for _, length := range []int{4, 12, 48} {
			xs := testSeqs(rng.New(30), 12, length, 1)[0]
			got := testing.AllocsPerRun(20, func() {
				if _, _, err := n.RunWavefrontE(xs, opt); err != nil {
					t.Fatal(err)
				}
			})
			if got > want {
				t.Errorf("intra=%v T=%d: RunWavefrontE makes %v allocs, want <= %v", opt.Intra, length, got, want)
			}
		}
	}
}
