package equivtest

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"mobilstm/internal/intercell"
	"mobilstm/internal/recurrent"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

// The forward-path contract suite, written once over both cell kinds.
// The lstm and gru packages bind each check to a named test through
// their Kind; the matrix a check walks is
//
//	mode {baseline, intra, inter, combined} × B × ragged lengths
//	× GOMAXPROCS {1, 2, 8} × chain {canonical, wide}
//
// Every check runs under the process-default chain, which the Wide
// twins switch with UseChain. Equality holds within one chain only: the
// chains drift by design, and that drift is measured (ChainULPDrift)
// rather than forbidden.

// Net is the forward surface every cell kind's network has by embedding
// recurrent.Network.
type Net interface {
	Run(xs []tensor.Vector, opt recurrent.RunOptions) tensor.Vector
	RunBatch(seqs [][]tensor.Vector, opt recurrent.RunOptions) []tensor.Vector
	Classify(xs []tensor.Vector, opt recurrent.RunOptions) int
	ClassifyBatch(seqs [][]tensor.Vector, opt recurrent.RunOptions) []int
	ClassifyBatchE(seqs [][]tensor.Vector, opt recurrent.RunOptions) ([]int, error)
	CheckSequence(xs []tensor.Vector) error
	RunWavefrontE(xs []tensor.Vector, opt recurrent.RunOptions) (tensor.Vector, bool, error)
	// InitRandom is the kind's synthetic weight generator, a production
	// weight writer.
	InitRandom(r *rng.RNG, linkScale func(layer int) float64, frac float64)
}

// Kind is one cell kind as the suite needs it.
type Kind struct {
	// New returns a randomly initialized network; equal arguments give
	// bitwise equal networks with separate (cold) packed caches.
	New func(input, hidden, layers, classes int, seed uint64) Net
	// Poke scales one input projection of layer 0 in place, without
	// invalidating, and returns that layer's Invalidate.
	Poke func(n Net) (invalidate func())
	// AlphaIntra is a DRS threshold that skips some rows but not all.
	AlphaIntra float64
	// Calibrate and CollectPredictors are the kind's offline passes:
	// its Calibrate (a production weight writer) with some per-layer
	// spread, and its CollectPredictors.
	Calibrate         func(n Net, seqs [][]tensor.Vector)
	CollectPredictors func(n Net, seqs [][]tensor.Vector) []intercell.Predictor
	// InvalidateAll drops the packed cache of every layer.
	InvalidateAll func(n Net)
	// Misshape replaces one input projection of the layer with a matrix
	// one column too wide and invalidates the layer, so its next run
	// fails a shape check. restore puts the projection back and
	// invalidates the layer again.
	Misshape func(n Net, layer int) (restore func())
}

// Seqs draws count sequences of the given length.
func Seqs(r *rng.RNG, dim, length, count int) [][]tensor.Vector {
	out := make([][]tensor.Vector, count)
	for s := range out {
		xs := make([]tensor.Vector, length)
		for t := range xs {
			v := tensor.NewVector(dim)
			for j := range v {
				v[j] = r.NormF32(0, 1.5)
			}
			xs[t] = v
		}
		out[s] = xs
	}
	return out
}

// raggedSeqs draws count sequences of harness-generated ragged lengths
// in [1, maxLen], so at least two members differ.
func raggedSeqs(r *rng.RNG, dim, maxLen, count int) [][]tensor.Vector {
	out := make([][]tensor.Vector, count)
	for i, ln := range RaggedLengths(r, count, maxLen) {
		out[i] = Seqs(r, dim, ln, 1)[0]
	}
	return out
}

// ZeroPredictors returns cold-start predictors for every layer.
func ZeroPredictors(layers, hidden int) []intercell.Predictor {
	out := make([]intercell.Predictor, layers)
	for i := range out {
		out[i] = intercell.Predictor{H: tensor.NewVector(hidden), C: tensor.NewVector(hidden)}
	}
	return out
}

// subject is a network under test together with the shape it was built
// with, which the mode table needs for its predictors and probe.
type subject struct {
	Net
	input, hidden, layers int
}

func (k Kind) subject(input, hidden, layers, classes int, seed uint64) subject {
	return subject{k.New(input, hidden, layers, classes, seed), input, hidden, layers}
}

type mode struct {
	name string
	opt  recurrent.RunOptions
}

// modes returns the four execution modes. The inter-cell threshold is
// the median link relevance the network shows on a probe sequence, so
// the inter flows both cut links (predicted starts, multi-cell tissues)
// and keep links.
func (k Kind) modes(n subject) []mode {
	preds := ZeroPredictors(n.layers, n.hidden)
	tr := &recurrent.Trace{}
	n.Run(Seqs(rng.New(7), n.input, 24, 1)[0], recurrent.RunOptions{Inter: true, MTS: 4, Predictors: preds, Trace: tr})
	var rel []float64
	for _, lt := range tr.Layers {
		rel = append(rel, lt.Relevance...)
	}
	sort.Float64s(rel)
	alphaInter := rel[len(rel)/2]
	return []mode{
		{"baseline", recurrent.RunOptions{}},
		{"intra", recurrent.RunOptions{Intra: true, AlphaIntra: k.AlphaIntra}},
		{"inter", recurrent.RunOptions{Inter: true, AlphaInter: alphaInter, MTS: 4, Predictors: preds}},
		{"combined", recurrent.RunOptions{Inter: true, AlphaInter: alphaInter, MTS: 4, Predictors: preds,
			Intra: true, AlphaIntra: k.AlphaIntra}},
	}
}

func serial(n Net, seqs [][]tensor.Vector, opt recurrent.RunOptions) []tensor.Vector {
	out := make([]tensor.Vector, len(seqs))
	for i, xs := range seqs {
		out[i] = n.Run(xs, opt)
	}
	return out
}

// atGOMAXPROCS runs f under each scheduler width of the sweep.
func atGOMAXPROCS(f func(procs string)) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		f(" GOMAXPROCS=" + itoa(procs))
		runtime.GOMAXPROCS(prev)
	}
}

// concurrently runs f on eight goroutines at GOMAXPROCS 8 and waits —
// the serve-worker pattern the cold-cache checks race.
func concurrently(f func(worker int)) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	const workers = 8
	done := make(chan struct{}, workers) // one send per worker, so none blocks
	for w := 0; w < workers; w++ {
		go func() {
			f(w)
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// BatchMatchesSerial pins the batched-forward contract: member i of
// RunBatch is bitwise identical to serial Run(seqs[i]) in every mode,
// at every batch size, over ragged lengths, on the default chain. The
// inter modes also batch a one-cell member (one tissue) with members of
// 17, 9 and 4 cells (at least 5, 3 and 1 tissues of at most MTS = 4),
// so lockstep by tissue index drops members at different steps.
func BatchMatchesSerial(t *testing.T, k Kind) {
	n := k.subject(24, 32, 2, 5, 301)
	r := rng.New(302)
	for _, m := range k.modes(n) {
		for _, b := range []int{1, 2, 3, 5} {
			seqs := raggedSeqs(r, 24, 17, b)
			Batch(t, m.name+" B="+itoa(b), n.RunBatch(seqs, m.opt), serial(n, seqs, m.opt))
		}
		if m.opt.Inter {
			var seqs [][]tensor.Vector
			for _, ln := range []int{17, 1, 9, 4} {
				seqs = append(seqs, Seqs(r, 24, ln, 1)[0])
			}
			Batch(t, m.name+" tissue counts", n.RunBatch(seqs, m.opt), serial(n, seqs, m.opt))
		}
	}
}

// ClassifyBatchMatchesSerial pins the classification wrappers to the
// serial Classify per member.
func ClassifyBatchMatchesSerial(t *testing.T, k Kind) {
	n := k.subject(16, 24, 2, 6, 303)
	r := rng.New(304)
	for _, m := range k.modes(n) {
		seqs := raggedSeqs(r, 16, 12, 4)
		want := make([]int, len(seqs))
		for i, xs := range seqs {
			want[i] = n.Classify(xs, m.opt)
		}
		Classes(t, m.name, n.ClassifyBatch(seqs, m.opt), want)
		gotE, err := n.ClassifyBatchE(seqs, m.opt)
		if err != nil {
			t.Fatalf("%s: ClassifyBatchE: %v", m.name, err)
		}
		Classes(t, m.name+" (E)", gotE, want)
	}
}

// RunBatchEValidation pins the error contract of the Guard boundary at
// ClassifyBatchE, the batch entry point the serving loop calls:
// malformed batches surface as errors, not panics, and do not poison
// shared state.
func RunBatchEValidation(t *testing.T, k Kind) {
	n := k.New(8, 8, 2, 3, 305)
	good := Seqs(rng.New(306), 8, 5, 1)[0]
	cases := []struct {
		name string
		seqs [][]tensor.Vector
		opt  recurrent.RunOptions
		want string
	}{
		{"empty batch", nil, recurrent.RunOptions{}, "empty batch"},
		{"empty member", [][]tensor.Vector{good, {}}, recurrent.RunOptions{}, "empty input sequence"},
		{"trace", [][]tensor.Vector{good}, recurrent.RunOptions{Trace: &recurrent.Trace{}}, "per-sequence"},
		{"inter no mts", [][]tensor.Vector{good}, recurrent.RunOptions{Inter: true}, "MTS"},
		{"inter predictors", [][]tensor.Vector{good}, recurrent.RunOptions{Inter: true, MTS: 2}, "predictors"},
	}
	for _, tc := range cases {
		if _, err := n.ClassifyBatchE(tc.seqs, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := n.ClassifyBatchE([][]tensor.Vector{good, good}, recurrent.RunOptions{}); err != nil {
		t.Fatalf("valid batch after failures: %v", err)
	}
}

// CheckSequence pins the serve-facing per-member validator.
func CheckSequence(t *testing.T, k Kind) {
	n := k.New(8, 8, 1, 3, 307)
	good := Seqs(rng.New(308), 8, 4, 1)[0]
	if err := n.CheckSequence(good); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
	if err := n.CheckSequence(nil); err == nil {
		t.Fatal("empty sequence accepted")
	}
	bad := [][]tensor.Vector{{tensor.NewVector(7)}, {good[0], tensor.NewVector(9)}}
	for _, xs := range bad {
		if err := n.CheckSequence(xs); err == nil {
			t.Fatalf("mis-sized sequence accepted: %v", xs)
		}
	}
}

// RunBitwiseAcrossGOMAXPROCS pins the determinism guarantee of the
// packed hot path at network level: the logits of every mode are
// identical to the last bit at any GOMAXPROCS. The fork-join inside
// PackedGemm/PackedGemmRows opens only over weights larger than a
// core's L2, which no test network here has; that it shards rows, never
// accumulation chains, is pinned kernel by kernel in tensor's
// *AtAnyGOMAXPROCS tests, on shapes that fork.
func RunBitwiseAcrossGOMAXPROCS(t *testing.T, k Kind) {
	n := k.subject(48, 64, 2, 5, 91)
	xs := Seqs(rng.New(92), 48, 40, 1)[0]
	for _, m := range k.modes(n) {
		ref := n.Run(xs, m.opt)
		atGOMAXPROCS(func(procs string) {
			Vectors(t, m.name+procs, n.Run(xs, m.opt), ref)
		})
	}
}

// RunRepeatable pins that back-to-back runs through the reused packed
// cache are bitwise stable — a regression guard against scratch state
// leaking between calls.
func RunRepeatable(t *testing.T, k Kind) {
	n := k.New(16, 24, 3, 4, 93)
	opt := recurrent.RunOptions{Intra: true, AlphaIntra: k.AlphaIntra}
	for _, xs := range Seqs(rng.New(94), 16, 21, 2) {
		first := n.Run(xs, opt)
		for rep := 0; rep < 3; rep++ {
			Vectors(t, "rep "+itoa(rep), n.Run(xs, opt), first)
		}
	}
}

// ConcurrentRunsShareColdCache races first-use builds of the packed
// weight cache: a fresh network run from many goroutines at once (the
// serve-worker pattern) must agree on one united copy and produce
// bitwise identical logits. Run under -race in CI, this guards the
// lock-free cache read. The cache holds weights, not results, so it is
// chain-neutral: a network whose cache was first built under the wide
// chain must give a fresh network's bits once the switch is undone.
func ConcurrentRunsShareColdCache(t *testing.T, k Kind) {
	xs := Seqs(rng.New(90), 24, 18, 1)[0]
	want := k.New(24, 32, 2, 4, 89).Run(xs, recurrent.RunOptions{})
	n := k.New(24, 32, 2, 4, 89)
	var results [8]tensor.Vector
	concurrently(func(w int) { results[w] = n.Run(xs, recurrent.RunOptions{}) })
	for w, got := range results {
		Vectors(t, "worker "+itoa(w), got, want)
	}
	wideBuilt := k.New(24, 32, 2, 4, 89)
	under(t, tensor.ChainAVX2, func() { wideBuilt.Run(xs, recurrent.RunOptions{}) })
	Vectors(t, "run on a cache built under avx2", wideBuilt.Run(xs, recurrent.RunOptions{}), want)
}

// InvalidateRefreshesPackedCache documents the cache contract: a direct
// weight mutation without Invalidate leaves runs on the stale united
// copy; Invalidate picks the new weights up.
func InvalidateRefreshesPackedCache(t *testing.T, k Kind) {
	n := k.New(8, 8, 1, 3, 95)
	xs := Seqs(rng.New(96), 8, 6, 1)[0]
	before := n.Run(xs, recurrent.RunOptions{}) // builds the cache

	invalidate := k.Poke(n)
	Vectors(t, "mutation without Invalidate", n.Run(xs, recurrent.RunOptions{}), before)

	invalidate()
	if MaxULP(t, "after Invalidate", n.Run(xs, recurrent.RunOptions{}), before) == 0 {
		t.Fatal("Invalidate did not pick up the weight mutation")
	}
}

// WritersInvalidatePackedCache pins the packed-cache contract at every
// production weight writer, where InvalidateRefreshesPackedCache pins
// the mechanism: with every layer's united copy warm, a writer runs,
// and the next run in each mode must equal a run on freshly packed
// weights. A writer that misses an Invalidate on any layer it writes
// leaves that run on the stale copy. The writers are InitRandom and
// Calibrate (which rescales every layer's inputs and co-adapts the deep
// layers).
func WritersInvalidatePackedCache(t *testing.T, k Kind) {
	r := rng.New(417)
	calib := Seqs(r, 16, 12, 3)
	xs := Seqs(r, 16, 14, 1)[0]
	writers := []struct {
		name  string
		write func(Net)
	}{
		{"InitRandom", func(n Net) {
			n.InitRandom(rng.New(418), func(l int) float64 { return 0.8 + 0.3*float64(l) }, 0.3)
		}},
		{"Calibrate", func(n Net) { k.Calibrate(n, calib) }},
	}
	for _, w := range writers {
		n := k.subject(16, 24, 3, 4, 419)
		ms := k.modes(n)
		warm := n.Run(xs, ms[0].opt) // every layer's united copy is built
		w.write(n.Net)
		after := make([]tensor.Vector, len(ms))
		for i, m := range ms {
			after[i] = n.Run(xs, m.opt)
		}
		k.InvalidateAll(n.Net)
		for i, m := range ms {
			Vectors(t, w.name+" "+m.name+": run after the writer vs after Invalidate", after[i], n.Run(xs, m.opt))
		}
		if MaxULP(t, w.name, after[0], warm) == 0 {
			t.Fatalf("%s left the baseline logits unchanged; the check needs a writer that writes", w.name)
		}
	}
}

// held is one forward output a caller kept, with its bits at the time.
type held struct {
	name string
	live any // tensor.Vector, []float64 or []int, as returned
	bits []uint64
}

func bitsOf(v any) []uint64 {
	var out []uint64
	switch v := v.(type) {
	case tensor.Vector:
		for _, x := range v {
			out = append(out, uint64(math.Float32bits(x)))
		}
	case []float64:
		for _, x := range v {
			out = append(out, math.Float64bits(x))
		}
	case []int:
		for _, x := range v {
			out = append(out, uint64(x))
		}
	}
	return out
}

// poison overwrites every element of a kept output.
func poison(v any) {
	switch v := v.(type) {
	case tensor.Vector:
		v.Fill(float32(math.NaN()))
	case []float64:
		for i := range v {
			v[i] = math.NaN()
		}
	case []int:
		for i := range v {
			v[i] = -7
		}
	}
}

func unchanged(t *testing.T, when string, h held) {
	t.Helper()
	if got := bitsOf(h.live); !slices.Equal(got, h.bits) {
		t.Fatalf("%s changed %s: %x, kept %x", when, h.name, got, h.bits)
	}
}

// OutputsOutliveNextPass pins that what a pass hands back belongs to
// the caller: the logits of Run, RunBatch and a pipelined
// RunWavefrontE, a Trace's Relevance, Breakpoints, SkipCounts and
// TissueSizes, and CollectPredictors' predictors
//
//   - stay bitwise unchanged through later passes over other inputs, of
//     the same lengths and at another batch size, in every mode;
//   - share no memory with each other (overwriting one leaves the rest
//     as they were);
//   - share none with anything a later pass reads (a rerun after all of
//     them are overwritten still gives the kept logits).
//
// A view of the forward's scratch arena, whose slabs the next layer of a
// pass and every later pass that takes the arena from its pool write
// again, fails one of the three.
func OutputsOutliveNextPass(t *testing.T, k Kind) {
	n := k.subject(16, 24, 3, 4, 420)
	r := rng.New(421)
	ms := k.modes(n)
	intra, combined := ms[1].opt, ms[len(ms)-1].opt
	seqs := raggedSeqs(r, 16, 14, 3)

	var kept []held
	keep := func(name string, v any) { kept = append(kept, held{name, v, bitsOf(v)}) }
	keepTrace := func(pass string, tr *recurrent.Trace) {
		for li, lt := range tr.Layers {
			layer := pass + " layer " + itoa(li) + " "
			keep(layer+"Relevance", lt.Relevance)
			keep(layer+"Breakpoints", lt.Breakpoints)
			keep(layer+"SkipCounts", lt.SkipCounts)
			keep(layer+"TissueSizes", lt.TissueSizes)
		}
	}
	// Grow layer 0's pooled arena to the largest pass kept below, so
	// that no later pass of the same lengths regrows it: a regrown
	// arena drops the slabs a kept view would alias.
	n.RunBatch(seqs, combined)
	traced := combined
	traced.Trace = &recurrent.Trace{}
	keep("Run logits", n.Run(seqs[0], traced))
	keepTrace("Run", traced.Trace)
	// The wavefront pipelines only outside Inter; Intra gives its trace
	// skip counts.
	traced = intra
	traced.Trace = &recurrent.Trace{}
	logits, pipelined, err := n.RunWavefrontE(seqs[0], traced)
	if err != nil || !pipelined {
		t.Fatalf("RunWavefrontE: pipelined %v, error %v", pipelined, err)
	}
	keep("RunWavefrontE logits", logits)
	keepTrace("RunWavefrontE", traced.Trace)
	for i, logits := range n.RunBatch(seqs, combined) {
		keep(labelMember("RunBatch logits", i), logits)
	}
	for li, p := range k.CollectPredictors(n.Net, seqs) {
		keep("predictor "+itoa(li)+" H", p.H)
		keep("predictor "+itoa(li)+" C", p.C)
	}

	// Inputs of the kept passes' own lengths reuse the pooled arenas as
	// they are; the larger batch regrows them.
	again := make([][]tensor.Vector, len(seqs))
	for i, xs := range seqs {
		again[i] = Seqs(r, 16, len(xs), 1)[0]
	}
	others := raggedSeqs(r, 16, 17, 5)
	for _, later := range [][][]tensor.Vector{again, others} {
		for _, m := range ms {
			opt := m.opt
			opt.Trace = &recurrent.Trace{}
			n.Run(later[0], opt)
			opt.Trace = &recurrent.Trace{}
			if _, _, err := n.RunWavefrontE(later[0], opt); err != nil {
				t.Fatalf("%s: RunWavefrontE: %v", m.name, err)
			}
			n.RunBatch(later, m.opt)
		}
		k.CollectPredictors(n.Net, later)
	}
	for _, h := range kept {
		unchanged(t, "a second pass", h)
	}

	for i := range kept {
		poison(kept[i].live)
		for _, h := range kept[i+1:] {
			unchanged(t, "overwriting "+kept[i].name, h)
		}
	}
	kept[0].live = n.Run(seqs[0], combined)
	unchanged(t, "overwriting every kept output", kept[0])
}

// RunBatchBitwiseAcrossGOMAXPROCS extends the determinism guarantee to
// the batched forward path: the batch GEMMs shard united weight rows,
// never accumulation chains, so a ragged batch matches its per-member
// serial runs bit for bit whatever the scheduler does.
func RunBatchBitwiseAcrossGOMAXPROCS(t *testing.T, k Kind) {
	n := k.subject(48, 64, 2, 5, 91)
	r := rng.New(92)
	var seqs [][]tensor.Vector
	for _, ln := range []int{40, 23, 31, 40} {
		seqs = append(seqs, Seqs(r, 48, ln, 1)[0])
	}
	for _, m := range k.modes(n) {
		want := serial(n, seqs, m.opt)
		atGOMAXPROCS(func(procs string) {
			Batch(t, m.name+procs, n.RunBatch(seqs, m.opt), want)
		})
	}
}

// ConcurrentRunBatchSharesColdCache races first-use builds of the
// packed weight cache through the batch path: a fresh network batched
// from many goroutines at once must agree on one united copy and match
// the serial reference bitwise. Run under -race in CI.
func ConcurrentRunBatchSharesColdCache(t *testing.T, k Kind) {
	n := k.New(24, 32, 2, 4, 89)
	r := rng.New(90)
	var seqs [][]tensor.Vector
	for _, ln := range []int{18, 11, 18} {
		seqs = append(seqs, Seqs(r, 24, ln, 1)[0])
	}
	want := serial(k.New(24, 32, 2, 4, 89), seqs, recurrent.RunOptions{})

	var results [8][]tensor.Vector
	concurrently(func(w int) { results[w] = n.RunBatch(seqs, recurrent.RunOptions{}) })
	for w, got := range results {
		Batch(t, "worker "+itoa(w), got, want)
	}
}

// ArenasRecycleAcrossGoroutines pins the pooled forward arenas under
// concurrency: eight goroutines share one warm network, and each runs
// the same schedule from its own starting point. The schedule mixes
// Run, ragged RunBatch of three to five members and RunWavefrontE over
// lengths from one cell to three chunks in Baseline, Intra and Combined
// (which the wavefront runs as the layer loop), so an arena
// one pass hands back is taken next by a pass of another size or mode,
// often on another goroutine. Every result is bitwise its serial
// reference, computed before the race. Run under -race in CI.
func ArenasRecycleAcrossGoroutines(t *testing.T, k Kind) {
	n := k.subject(16, 24, 3, 4, 440)
	r := rng.New(441)
	ms := k.modes(n)
	type pass struct {
		name string
		opt  recurrent.RunOptions
		seqs [][]tensor.Vector // one member, or a ragged batch
		wave bool              // RunWavefrontE rather than Run
		want []tensor.Vector
	}
	var passes []pass
	for _, m := range []mode{ms[0], ms[1], ms[3]} {
		for i, length := range []int{1, 5, 12} {
			xs := Seqs(r, 16, length, 1)
			batch := raggedSeqs(r, 16, length+2, 3+i)
			name := m.name + " T=" + itoa(length)
			passes = append(passes,
				pass{name + " Run", m.opt, xs, false, serial(n, xs, m.opt)},
				pass{name + " RunWavefrontE", m.opt, xs, true, serial(n, xs, m.opt)},
				pass{name + " RunBatch", m.opt, batch, false, serial(n, batch, m.opt)})
		}
	}
	var results [8][][]tensor.Vector
	errs := make([]error, len(results))
	concurrently(func(w int) {
		results[w] = make([][]tensor.Vector, len(passes))
		for i := range passes {
			j := (i + 5*w) % len(passes)
			p := passes[j]
			switch {
			case p.wave:
				logits, _, err := n.RunWavefrontE(p.seqs[0], p.opt)
				if err != nil {
					errs[w] = err
					return
				}
				results[w][j] = []tensor.Vector{logits}
			case len(p.seqs) == 1:
				results[w][j] = []tensor.Vector{n.Run(p.seqs[0], p.opt)}
			default:
				results[w][j] = n.RunBatch(p.seqs, p.opt)
			}
		}
	})
	for w, got := range results {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for j, p := range passes {
			Batch(t, "worker "+itoa(w)+" "+p.name, got[j], p.want)
		}
	}
}

// arenaFreeBytes bounds the heap bytes of one steady-state forward of
// SteadyStateAllocatesNoArena's network: the logits, the member lengths
// and the wavefront's goroutine bookkeeping, at most 1,080 B measured.
// One arena per call exceeds it at every length: a Run that allocates
// its arena takes 9.4 KB (GRU) to 10.9 KB (LSTM) already at T = 4.
const arenaFreeBytes = 2 << 10

// SteadyStateAllocatesNoArena pins that a steady-state forward takes
// its arenas from the layers' pools rather than allocating them: under
// Baseline and Intra, the heap bytes of one Run, one B = 4 RunBatch and
// one pipelined RunWavefrontE of a three-layer network stay under
// arenaFreeBytes at every length, where an arena's flat slabs grow with
// the length. The bytes are those of the cheapest of many calls at
// GOMAXPROCS 1 (see bytesPerPass), so the pin holds under the race
// detector as well.
func SteadyStateAllocatesNoArena(t *testing.T, k Kind) {
	n := k.subject(32, 64, 3, 5, 445)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, m := range k.modes(n)[:2] { // Baseline and Intra
		for _, length := range []int{4, 12, 48} {
			seqs := Seqs(rng.New(446), 32, length, 4)
			name := m.name + " T=" + itoa(length) + " "
			for _, c := range []struct {
				name string
				pass func()
			}{
				{"Run", func() { n.Run(seqs[0], m.opt) }},
				{"RunBatch B=4", func() { n.RunBatch(seqs, m.opt) }},
				{"RunWavefrontE", func() {
					if _, _, err := n.RunWavefrontE(seqs[0], m.opt); err != nil {
						t.Fatal(err)
					}
				}},
			} {
				if b := bytesPerPass(c.pass); b > arenaFreeBytes {
					t.Errorf("%s%s allocates %d B per steady-state pass, want <= %d", name, c.name, b, arenaFreeBytes)
				}
			}
		}
	}
}

// bytesPerPass returns the heap bytes one warm call of pass allocates:
// the least over 40 calls, each measured alone, so that a collection
// that empties a pool, or a value the pool drops, costs one call and
// not the pin. The race detector makes sync.Pool drop a random quarter
// of the values put back; a three-layer wavefront then finds all three
// arenas pooled with odds 27/64 per call, and 40 calls all miss with
// odds under 1e-9.
func bytesPerPass(pass func()) uint64 {
	pass()
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 40 {
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// WavefrontMatchesRun pins the layer wavefront to the layer loop: the
// logits of RunWavefrontE, traced or not, and the trace it records are
// bitwise those of Run — over one and three layers, sequences shorter
// than a chunk, of one chunk, not a multiple of it and of many, in
// every mode, at GOMAXPROCS 1, 2 and 4 — and it pipelines exactly the
// three-layer nets outside Inter (one layer, Inter and Combined take
// the layer loop).
func WavefrontMatchesRun(t *testing.T, k Kind) {
	for _, layers := range []int{1, 3} {
		n := k.subject(20, 32, layers, 5, 431)
		r := rng.New(432)
		for _, m := range k.modes(n) {
			tracing := m.opt
			for _, length := range []int{1, 3, 4, 5, 12, 48} {
				xs := Seqs(r, 20, length, 1)[0]
				name := m.name + " layers=" + itoa(layers) + " T=" + itoa(length)
				want := n.Run(xs, m.opt)
				tracing.Trace = &recurrent.Trace{}
				n.Run(xs, tracing)
				wantTr := tracing.Trace
				for _, procs := range []int{1, 2, 4} {
					at := name + " GOMAXPROCS=" + itoa(procs)
					prev := runtime.GOMAXPROCS(procs)
					got, pipelined, err := n.RunWavefrontE(xs, m.opt)
					tracing.Trace = &recurrent.Trace{}
					gotTraced, _, errTraced := n.RunWavefrontE(xs, tracing)
					runtime.GOMAXPROCS(prev)
					if err != nil || errTraced != nil {
						t.Fatalf("%s: RunWavefrontE: %v, traced: %v", at, err, errTraced)
					}
					if want := layers > 1 && !m.opt.Inter; pipelined != want {
						t.Fatalf("%s: pipelined %v, want %v", at, pipelined, want)
					}
					Vectors(t, at, got, want)
					Vectors(t, at+" traced", gotTraced, want)
					if !reflect.DeepEqual(tracing.Trace, wantTr) {
						t.Fatalf("%s: wavefront trace %+v, Run's %+v", at, tracing.Trace, wantTr)
					}
				}
			}
		}
	}
}

// WavefrontHelperPanicIsError pins the error boundary across the
// wavefront's goroutines: a shape violation in layer 1, which runs on a
// helper goroutine, comes back from RunWavefrontE as an error on the
// caller instead of killing the process, and no goroutine the call
// started outlives it. The failed passes, and a misshaped batch through
// the layer loop, hand their half-written arenas back to the layers'
// pools; once the layer is restored and invalidated, the next Run,
// RunBatch and RunWavefrontE on those arenas are bitwise a fresh
// network's.
func WavefrontHelperPanicIsError(t *testing.T, k Kind) {
	n := k.subject(12, 16, 3, 4, 433)
	xs := Seqs(rng.New(434), 12, 9, 1)[0]
	seqs := raggedSeqs(rng.New(435), 12, 9, 3)
	ms := k.modes(n)[:2] // Baseline and Intra; the probe run warms layer 0's pool
	restore := k.Misshape(n.Net, 1)
	before := runtime.NumGoroutine()
	for _, m := range ms {
		if _, _, err := n.RunWavefrontE(xs, m.opt); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("%s: error %v, want the layer-1 shape violation", m.name, err)
		}
		if _, err := n.ClassifyBatchE(seqs, m.opt); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("%s: batch error %v, want the layer-1 shape violation", m.name, err)
		}
	}
	// A helper counted done by the join still needs a moment to return
	// from its deferred calls, so the count gets a bounded grace period.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed calls, %d before", runtime.NumGoroutine(), before)
		}
	}

	restore()
	fresh := k.New(12, 16, 3, 4, 433)
	for _, m := range ms {
		label := m.name + " after the failed passes: "
		want := fresh.Run(xs, m.opt)
		got, _, err := n.RunWavefrontE(xs, m.opt)
		if err != nil {
			t.Fatalf("%sRunWavefrontE: %v", label, err)
		}
		Vectors(t, label+"RunWavefrontE", got, want)
		Vectors(t, label+"Run", n.Run(xs, m.opt), want)
		Batch(t, label+"RunBatch", n.RunBatch(seqs, m.opt), serial(fresh, seqs, m.opt))
	}
}

// under runs f in a subtest named after c, under UseChain(c).
func under(t *testing.T, c tensor.KernelChain, f func()) {
	t.Run(c.String(), func(t *testing.T) { UseChain(t, c); f() })
}

// ChainAutoFollowsProcessDefault pins the one chain selector end to
// end: a run binds the process default, so switching it to the wide
// chain moves the logits off the canonical bits, a fresh network under
// the same switch gives the moved bits exactly, and undoing the switch
// restores the canonical bits.
func ChainAutoFollowsProcessDefault(t *testing.T, k Kind) {
	xs := Seqs(rng.New(411), 16, 12, 1)[0]
	n := k.New(16, 24, 2, 4, 410)
	run := func(n Net) tensor.Vector { return n.Run(xs, recurrent.RunOptions{}) }
	var canonical, wide, fresh, restored tensor.Vector
	under(t, Canonical(), func() { canonical = run(n) })
	under(t, tensor.ChainAVX2, func() { wide, fresh = run(n), run(k.New(16, 24, 2, 4, 410)) })
	under(t, Canonical(), func() { restored = run(n) })
	Vectors(t, "fresh network under the avx2 default", fresh, wide)
	Vectors(t, "canonical after the avx2 switch is undone", restored, canonical)
	if MaxULP(t, "avx2 default vs canonical", wide, canonical) == 0 {
		t.Fatal("switching the process default to avx2 left the logits on the canonical bits")
	}
}

// ChainULPDrift measures — not forbids — the wide chain's drift from
// the canonical chain on baseline logits. The bound is a loose sanity
// rail (three recurrent layers amplify the per-dot difference); the
// measured values are reported in EXPERIMENTS.md.
func ChainULPDrift(t *testing.T, k Kind) {
	n := k.New(24, 32, 3, 5, 412)
	seqs := Seqs(rng.New(413), 24, 20, 8)
	var canon, wide []tensor.Vector
	under(t, Canonical(), func() { canon = serial(n, seqs, recurrent.RunOptions{}) })
	under(t, tensor.ChainAVX2, func() { wide = serial(n, seqs, recurrent.RunOptions{}) })
	var worst uint32
	for i := range seqs {
		worst = max(worst, MaxULP(t, "drift", wide[i], canon[i]))
	}
	t.Logf("max ULP drift wide vs canonical over %d sequences: %d", len(seqs), worst)
	if worst > 1<<16 {
		t.Fatalf("wide chain drifted %d ULP from canonical — beyond any plausible rounding divergence", worst)
	}
}

// FuzzRunBatchEquivalence drives the batched forward path with
// rng-derived batch shapes and modes: whatever the batch size, length
// raggedness or execution mode, every member must stay bitwise
// identical to its serial run. The seed corpus covers each mode once;
// the fuzzer then explores shape × mode combinations the table checks
// never enumerate.
func FuzzRunBatchEquivalence(f *testing.F, k Kind) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		layers := 1 + r.Intn(2)
		n := k.New(12, 16, layers, 4, r.Uint64())
		seqs := raggedSeqs(r, 12, 9, 1+r.Intn(6))
		var opt recurrent.RunOptions
		if seed%4 == 1 || seed%4 == 3 {
			opt.Intra, opt.AlphaIntra = true, 0.02+0.3*r.Float64()
		}
		if seed%4 >= 2 {
			// Link relevance scales with the hidden size: 8h spans the
			// 16-wide networks' range for both kinds.
			opt.Inter, opt.AlphaInter, opt.MTS = true, 8*16*r.Float64(), 1+r.Intn(4)
			opt.Predictors = ZeroPredictors(layers, 16)
		}
		var got []tensor.Vector
		err := func() (err error) {
			defer tensor.Guard(&err)
			got = n.RunBatch(seqs, opt)
			return nil
		}()
		if err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		Batch(t, "seed "+itoa(int(seed%1000)), got, serial(n, seqs, opt))
	})
}
