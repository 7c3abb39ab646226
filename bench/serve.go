package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobilstm/internal/core"
	"mobilstm/internal/gpu"
	"mobilstm/internal/kernels"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/serve"
	"mobilstm/internal/tensor"
)

// Constants of the serving workloads; README.md records the seed-commit
// numbers they were sized from.
const (
	// warmupSpan of untimed traffic precedes every timed span.
	warmupSpan = time.Second
	// sloMs is the latency limit behind slo_ok_share.
	sloMs = 50.0
	// openRate is the open loop's fixed rate, requests per second.
	openRate = 100
	// tracedDivisor: the traced pass runs this fraction of the timed span.
	tracedDivisor = 4
	// replayReps executions of each observed window shape; the median
	// forward time is what serve.overhead_ms_p50 subtracts.
	replayReps = 3
)

// serveSpec is one serving workload: the system configuration and the
// traffic sent to it.
type serveSpec struct {
	name string
	// shards 0 serves on one serve.Server; otherwise a serve.Fleet.
	shards   int
	workers  int // per server
	maxBatch int
	window   time.Duration
	mode     sched.Mode
	benches  []string
	// ragged sends caller-supplied sequences of seeded length (Ref -1)
	// instead of corpus requests (Seq nil).
	ragged bool
	// clients > 0 is a closed loop with that many clients; 0 is an open
	// loop at rate requests per second.
	clients int
	rate    int
	// slice consecutive requests make one slice of the timed span, and a
	// new slice starts every step requests (see serveEndToEnd). A closed
	// loop's slice is about a tenth of a second (batch) or a quarter of one
	// (single stream: two blocks of the ragged walk, starting on a block, so
	// that every slice sends the same lengths); the open loop's is one
	// second of its schedule, which holds the same load and mix.
	slice, step int
}

var serveSpecs = []serveSpec{
	{name: "serve_closed_batch", workers: 2, maxBatch: 4, window: 2 * time.Millisecond,
		mode: sched.Intra, benches: []string{"PTB"}, clients: 8, slice: 32, step: 8},
	{name: "serve_single_stream", workers: 2, maxBatch: 1, window: 0,
		mode: sched.Intra, benches: []string{"PTB"}, ragged: true, clients: 1, slice: 2 * raggedBlock, step: raggedBlock},
	{name: "serve_open_mixed", shards: 2, workers: 1, maxBatch: 4, window: 2 * time.Millisecond,
		mode: sched.Combined, benches: []string{"MR", "BABI", "PTB"}, rate: openRate, slice: openRate, step: openRate},
}

// system is what the benchmark drives: serve.Server or serve.Fleet.
type system interface {
	Submit(context.Context, serve.Request) (*serve.Response, error)
	Warm(string) error
	Close()
}

func (s serveSpec) start(prof model.Profile) system {
	cfg := serve.Config{
		GPU: gpu.TegraX1(), Profile: prof, Mode: s.mode, Set: serve.AutoSet,
		Workers: s.workers, QueueDepth: 64, MaxBatch: s.maxBatch, BatchWindow: s.window,
	}
	if s.shards == 0 {
		return serve.New(cfg)
	}
	return serve.NewFleet(serve.FleetConfig{Base: cfg, Shards: s.shards, PreWarm: true, HotQueue: 8})
}

// counters sums the Stats() counters of every shard and benchmark.
type counters struct {
	served, rejected, cancelled, errors int64
	windows, dropped, runBatches        int64
	coldBuilds, installs, rebalanced    int64
}

func shardSnapshots(sys system) ([]serve.Snapshot, []serve.BenchCount) {
	switch s := sys.(type) {
	case *serve.Server:
		return []serve.Snapshot{s.Stats()}, nil
	case *serve.Fleet:
		fs := s.Stats()
		snaps := make([]serve.Snapshot, len(fs.Shards))
		for i, sh := range fs.Shards {
			snaps[i] = sh.Snapshot
		}
		return snaps, fs.Rebalances
	}
	return nil, nil
}

func countersOf(sys system) counters {
	var c counters
	snaps, rebalances := shardSnapshots(sys)
	for _, snap := range snaps {
		for _, b := range snap.Benches {
			c.served += b.Served
			c.rejected += b.Rejected
			c.cancelled += b.Cancelled
			c.errors += b.Errors
			c.windows += b.Windows
			c.dropped += b.DroppedWindows
			c.runBatches += b.RunBatches
			c.coldBuilds += b.ColdBuilds
			c.installs += b.Installs
		}
	}
	for _, r := range rebalances {
		c.rebalanced += r.Count
	}
	return c
}

// reference is the benchmark's own copy of one benchmark's engine
// (core.NewEngine is seeded, so it is the network the server built) and
// what a serial ClassifyE says every input should classify as.
type reference struct {
	bench  string
	eng    *core.Engine
	buildS float64

	// Known once the server has answered its first request.
	set  int
	opts lstm.RunOptions
	// corpus[i] is corpus sample i's (reference label, served class).
	corpus [][2]int
	valid  map[[2]int]bool
	// pool is the caller-supplied sequences (ragged workloads only).
	pool []pooled
}

type pooled struct {
	seq         []tensor.Vector
	want, exact int // class at the served point, and of the Baseline flow
}

// learn fixes the served threshold set and classifies every possible
// input serially at RunOptionsFor(mode, set), two inputs at a time.
func (ref *reference) learn(mode sched.Mode, set int) error {
	net, opts, pool := ref.eng.Inst.Net, ref.eng.RunOptionsFor(mode, set), ref.pool
	seqs, labels := ref.eng.Inst.AccSeqs()
	corpus := make([][2]int, len(seqs))
	err := inParallel(len(seqs)+len(pool), func(i int) error {
		if i < len(seqs) {
			class, err := net.ClassifyE(seqs[i], opts)
			corpus[i] = [2]int{labels[i], class}
			return err
		}
		p := &pool[i-len(seqs)]
		var err error
		if p.want, err = net.ClassifyE(p.seq, opts); err == nil {
			p.exact, err = net.ClassifyE(p.seq, lstm.Baseline())
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("reference %s: %w", ref.bench, err)
	}
	ref.set, ref.opts, ref.corpus = set, opts, corpus
	ref.valid = make(map[[2]int]bool)
	for _, pair := range corpus {
		ref.valid[pair] = true
	}
	return nil
}

// inParallel calls fn(0..n-1) from benchProcs goroutines and returns the
// first error.
func inParallel(n int, fn func(i int) error) error {
	errs := make([]error, benchProcs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && errs[w] == nil; i = int(next.Add(1)) - 1 {
				errs[w] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// plan is one request to send: which benchmark, and which pooled
// sequence (-1 = a corpus request, the server picks the sample).
type plan struct{ bench, item int }

// sample is one request as the client saw it.
type sample struct {
	plan
	// start is the Submit call, or the due time in an open loop; late is
	// how long after its due time an open-loop request was sent.
	start, end time.Time
	late       time.Duration
	// failed: Submit erred, or the class is not the serial reference's.
	failed bool
	// exact: the class equals the Baseline flow's class of the input.
	exact bool
	resp  serve.Response // zero when Submit erred
}

func (s sample) latencyMs() float64 { return s.end.Sub(s.start).Seconds() * 1e3 }

// sent is when Submit was called.
func (s sample) sent() time.Time { return s.start.Add(s.late) }

// corpusDraw identifies one corpus cursor: each shard keeps one per
// benchmark.
type corpusDraw struct{ shard, bench int }

// driver sends requests to the system under test and checks the
// answers.
type driver struct {
	spec serveSpec
	sys  system
	refs []*reference

	// tr and phase are set for the traced pass only.
	tr    *tracer
	phase int
	reqID atomic.Int64

	mu       sync.Mutex
	firstErr error
	// seen counts the (reference label, class) pairs returned per corpus
	// cursor over the whole run, for the multiset check.
	seen map[corpusDraw]map[[2]int]int
}

// do sends one request and, when check is set, compares the response
// with the serial reference.
func (d *driver) do(pl plan, check bool) sample {
	ref := d.refs[pl.bench]
	req := serve.Request{Bench: ref.bench}
	if pl.item >= 0 {
		req.Seq, req.Ref = ref.pool[pl.item].seq, -1
	}
	s := sample{plan: pl, start: time.Now()}
	resp, err := d.sys.Submit(context.Background(), req)
	s.end = time.Now()
	if err != nil {
		s.failed = true
		d.mu.Lock()
		if d.firstErr == nil {
			d.firstErr = err
		}
		d.mu.Unlock()
		return s
	}
	s.resp = *resp
	if pl.item < 0 {
		d.mu.Lock()
		key := corpusDraw{resp.Shard, pl.bench}
		if d.seen[key] == nil {
			d.seen[key] = make(map[[2]int]int)
		}
		d.seen[key][[2]int{resp.Ref, resp.Class}]++
		d.mu.Unlock()
	}
	if check {
		ok, exact := ref.valid[[2]int{resp.Ref, resp.Class}], resp.Ref
		if pl.item >= 0 {
			p := ref.pool[pl.item]
			ok, exact = resp.Class == p.want, p.exact
		}
		s.failed = !ok || resp.Set != ref.set
		s.exact = resp.Class == exact
	}
	if d.tr != nil { // keep the untraced client path free of the attribute map
		d.tr.add(d.phase, "request", s.start, s.end, map[string]any{
			"req": d.reqID.Add(1), "bench": ref.bench, "wait_ms": resp.WaitMs,
			"batch": resp.BatchSize, "shard": resp.Shard, "set": resp.Set,
		})
	}
	return s
}

// draws returns a client's request stream: a seeded benchmark draw per
// request, and for ragged workloads a seeded walk through the pooled
// sequences (see raggedWalk), repeated for as long as the span lasts.
func (d *driver) draws(r *rng.RNG) func() plan {
	walks := make([][]int, len(d.refs))
	for i, ref := range d.refs {
		lengths := make([]int, len(ref.pool))
		for j, p := range ref.pool {
			lengths[j] = len(p.seq)
		}
		walks[i] = raggedWalk(r, lengths)
	}
	sent := make([]int, len(d.refs))
	return func() plan {
		pl := plan{bench: r.Intn(len(d.refs)), item: -1}
		if walk := walks[pl.bench]; len(walk) > 0 {
			pl.item = walk[sent[pl.bench]%len(walk)]
			sent[pl.bench]++
		}
		return pl
	}
}

// traffic runs one phase of the workload's traffic for span: the closed
// loop's clients each send their next request when the previous one
// returns; the open loop sends on its schedule whatever the system does.
func (d *driver) traffic(r *rng.RNG, span time.Duration) []sample {
	if d.spec.clients == 0 {
		return d.openLoop(arrivalSchedule(r, d.spec.rate, span, len(d.refs)))
	}
	return d.closedLoop(r, span)
}

func (d *driver) closedLoop(r *rng.RNG, span time.Duration) []sample {
	perClient := make([][]sample, d.spec.clients)
	deadline := time.Now().Add(span)
	var wg sync.WaitGroup
	for c := range perClient {
		next := d.draws(r.Split())
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				mine = append(mine, d.do(next(), true))
			}
			perClient[c] = mine
		}()
	}
	wg.Wait()
	var out []sample
	for _, mine := range perClient {
		out = append(out, mine...)
	}
	return out
}

// openLoop is the single generator goroutine: it sleeps to each due
// time and hands the request to a goroutine that parks on the reply.
// Latency counts from the due time, so a stalled generator or system
// shows in every request it delayed.
func (d *driver) openLoop(schedule []arrival) []sample {
	out := make([]sample, len(schedule))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, a := range schedule {
		due := t0.Add(a.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.do(plan{bench: a.bench, item: -1}, true)
			s.late, s.start = s.start.Sub(due), due
			out[i] = s
		}()
	}
	wg.Wait()
	return out
}

// tally adds a phase's checked requests to the result.
func (res *result) tally(samples []sample) {
	res.attempted += len(samples)
	for _, s := range samples {
		if s.failed {
			res.failed++
		}
	}
}

// runServe runs one serving workload: reference engines, set-up, warm-up
// traffic, the timed span, and — when p.tracer is set — a traced pass,
// the window replay and the layer probes.
func runServe(spec serveSpec, prof model.Profile, p params) (*result, error) {
	res := &result{workload: spec.name, endToEnd: make(map[string]float64)}
	r := rng.New(p.seed)

	d := &driver{spec: spec, seen: make(map[corpusDraw]map[[2]int]int)}
	for _, name := range spec.benches {
		b, ok := model.ByName(name)
		if !ok {
			return nil, fmt.Errorf("%s: unknown benchmark %q", spec.name, name)
		}
		t := time.Now()
		ref := &reference{bench: name, eng: core.NewEngine(b, prof, gpu.TegraX1())}
		ref.buildS = time.Since(t).Seconds()
		if spec.ragged {
			corpus, _ := ref.eng.Inst.AccSeqs()
			for _, xs := range raggedSequences(corpus) {
				ref.pool = append(ref.pool, pooled{seq: xs})
			}
		}
		d.refs = append(d.refs, ref)
	}

	// Set-up: what a caller waits for before the first request can be
	// served at steady-state latency.
	setupSpan := p.tracer.open(0, "setup", map[string]any{"workload": spec.name})
	t0 := time.Now()
	d.sys = spec.start(prof)
	defer d.sys.Close()
	warmS := make(map[string]float64)
	for _, name := range spec.benches {
		var err error
		warmS[name] = p.tracer.timed(setupSpan, "serve.warm", map[string]any{"bench": name}, func() {
			err = d.sys.Warm(name)
		}).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: warm %s: %w", spec.name, name, err)
		}
	}
	res.endToEnd["setup_s"] = time.Since(t0).Seconds()
	p.tracer.close(setupSpan)

	// One unchecked request per benchmark tells which threshold set
	// AutoSet resolved to; everything after it is checked.
	for i, ref := range d.refs {
		pl := plan{bench: i, item: -1}
		if spec.ragged {
			pl.item = 0
		}
		s := d.do(pl, false)
		if s.failed {
			return nil, fmt.Errorf("%s: first %s request: %w", spec.name, ref.bench, d.firstErr)
		}
		if err := ref.learn(spec.mode, s.resp.Set); err != nil {
			return nil, err
		}
	}
	runtime.GC() // start every timed span from a collected heap
	res.tally(d.traffic(r.Split(), min(warmupSpan, p.span)))

	var m0, m1 runtime.MemStats
	before := countersOf(d.sys)
	runtime.ReadMemStats(&m0)
	timed := d.traffic(r.Split(), p.span)
	spanEnd := time.Now()
	runtime.ReadMemStats(&m1)
	during := countersOf(d.sys)
	res.tally(timed)
	serveEndToEnd(res, spec, timed, spanEnd)
	simAtServedPoints(res, d.refs, spec.mode)

	var traced []sample
	if p.tracer != nil {
		d.tr = p.tracer
		d.phase = d.tr.open(0, "traced_pass", map[string]any{"workload": spec.name})
		traced = d.traffic(r.Split(), p.span/tracedDivisor)
		d.tr.close(d.phase)
		res.tally(traced)
	}

	d.sys.Close()
	d.checkConservation(res)
	if res.failed > 0 {
		res.problemf("%d of %d requests failed (first error: %v)", res.failed, res.attempted, d.firstErr)
	}

	if p.tracer != nil {
		res.perLayer = newPerLayer()
		for name, s := range warmS {
			res.perLayer["serve.warm_s."+name] = s
		}
		d.serveLayers(res, timed, during.minus(before), &m0, &m1)
		res.perLayer["serve.overhead_ms_p50"] = d.replayWindows(traced)
		res.perLayer["trace.overhead_share"] = ratio(
			median(okLatencies(traced))-res.endToEnd["req_p50_ms"], res.endToEnd["req_p50_ms"])
		ref := d.refs[len(d.refs)-1] // PTB in every workload
		res.perLayer["core.new_engine_s"] = ref.buildS
		set, err := layerProbes(res.perLayer, p.tracer, ref.eng, prof, spec.mode, probeSequences(ref))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		if set != ref.set {
			res.problemf("%s served at set %d, its own AO sweep says %d", ref.bench, ref.set, set)
		}
	}
	return res, nil
}

// probeSequences are the workload's own inputs for the lstm probes.
func probeSequences(ref *reference) [][]tensor.Vector {
	if len(ref.pool) > 0 {
		seqs := make([][]tensor.Vector, len(ref.pool))
		for i, p := range ref.pool {
			seqs[i] = p.seq
		}
		return seqs
	}
	seqs, _ := ref.eng.Inst.AccSeqs()
	return seqs
}

func (c counters) minus(o counters) counters {
	return counters{
		served:   c.served - o.served,
		rejected: c.rejected - o.rejected, cancelled: c.cancelled - o.cancelled,
		errors: c.errors - o.errors, windows: c.windows - o.windows,
		dropped: c.dropped - o.dropped, runBatches: c.runBatches - o.runBatches,
		coldBuilds: c.coldBuilds, installs: c.installs, // set-up totals
		rebalanced: c.rebalanced - o.rebalanced,
	}
}

func okLatencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.failed {
			out = append(out, s.latencyMs())
		}
	}
	return out
}

// serveEndToEnd fills the user-visible metrics from the timed span,
// which ended at spanEnd. The box is a shared two-core VM whose cores
// run at full speed for seconds and at little more than half of it for
// seconds or minutes, each on its own, so a time taken over the whole
// span measures the neighbours. The span's requests, in the order they
// were sent, are cut into overlapping slices of spec.slice requests, one
// starting every spec.step; every slice measures the time-like metrics,
// and a metric's reading is its best slice — the repository's
// min-over-count protocol (BENCH_hotpath.json) applied to a stretch of
// traffic. slo_ok_share and accuracy count every request of the span.
func serveEndToEnd(res *result, spec serveSpec, samples []sample, spanEnd time.Time) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].start.Before(samples[j].start) })
	var scored, exact, inSLO int
	for _, s := range samples {
		if s.resp.Bench != "" {
			scored++
			if s.exact {
				exact++
			}
		}
		if !s.failed && s.latencyMs() <= sloMs {
			inSLO++
		}
	}
	p50, p95, rps := math.Inf(1), math.Inf(1), 0.0
	for lo := 0; lo == 0 || lo+spec.slice <= len(samples); lo += spec.step {
		// A span shorter than a slice is one slice.
		hi, end := min(lo+spec.slice, len(samples)), spanEnd
		if hi < len(samples) {
			end = samples[hi].sent()
		}
		lats := okLatencies(samples[lo:hi])
		if len(lats) == 0 {
			continue
		}
		p50 = math.Min(p50, median(lats))
		p95 = math.Min(p95, percentile(lats, 0.95))
		rps = math.Max(rps, ratio(float64(len(lats)), end.Sub(samples[lo].sent()).Seconds()))
	}
	res.endToEnd["req_p50_ms"] = p50
	res.endToEnd["req_p95_ms"] = p95
	res.endToEnd["throughput_rps"] = rps
	res.endToEnd["slo_ok_share"] = ratio(float64(inSLO), float64(len(samples)))
	res.endToEnd["accuracy"] = ratio(float64(exact), float64(scored))
}

// simAtServedPoints evaluates, on the reference engines, the operating
// point each benchmark is served at: the simulated gain a caller of the
// serving tier is getting.
func simAtServedPoints(res *result, refs []*reference, mode sched.Mode) {
	var speedups, savings []float64
	minAcc := math.Inf(1)
	for _, ref := range refs {
		out, err := ref.eng.EvaluateSetE(mode, ref.set)
		if err != nil {
			res.problemf("evaluate %s %v set %d: %v", ref.bench, mode, ref.set, err)
			return
		}
		speedups = append(speedups, out.Speedup)
		savings = append(savings, out.EnergySaving)
		minAcc = math.Min(minAcc, out.Accuracy)
	}
	res.endToEnd["sim_speedup_x"] = geomean(speedups)
	res.endToEnd["sim_energy_saving"] = mean(savings)
	res.endToEnd["sim_accuracy"] = minAcc
}

// checkConservation is the correctness gate on the server's own
// counters after Close, and on which corpus samples it served.
func (d *driver) checkConservation(res *result) {
	snaps, _ := shardSnapshots(d.sys)
	var coldBuilds int64
	for i, snap := range snaps {
		coldBuilds += snap.ColdBuilds
		for _, b := range snap.Benches {
			if b.Submitted != b.Served+b.Cancelled+b.Errors {
				res.problemf("shard %d %s: submitted %d != served %d + cancelled %d + errors %d",
					i, b.Bench, b.Submitted, b.Served, b.Cancelled, b.Errors)
			}
			if b.Windows != b.RunBatches+b.DroppedWindows {
				res.problemf("shard %d %s: windows %d != run batches %d + dropped %d",
					i, b.Bench, b.Windows, b.RunBatches, b.DroppedWindows)
			}
		}
	}
	if coldBuilds != int64(len(d.refs)) {
		res.problemf("%d cold builds for %d benchmarks", coldBuilds, len(d.refs))
	}
	// Each corpus cursor walks the samples round-robin, so the pairs a
	// cursor returned over n draws are known as a multiset even though
	// no single response says which sample it was.
	keys := make([]corpusDraw, 0, len(d.seen))
	for key := range d.seen {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shard != keys[j].shard {
			return keys[i].shard < keys[j].shard
		}
		return keys[i].bench < keys[j].bench
	})
	for _, key := range keys {
		ref, got := d.refs[key.bench], d.seen[key]
		n := 0
		for _, c := range got {
			n += c
		}
		want := make(map[[2]int]int)
		for i := 0; i < n; i++ {
			want[ref.corpus[i%len(ref.corpus)]]++
		}
		for pair, c := range want {
			if got[pair] != c {
				res.problemf("shard %d %s: corpus responses are not the round-robin samples at set %d",
					key.shard, ref.bench, ref.set)
				break
			}
		}
	}
}

// serveLayers fills the serve.* layer metrics from the untraced timed
// span: Response fields, Stats() deltas and runtime.MemStats deltas.
func (d *driver) serveLayers(res *result, samples []sample, c counters, m0, m1 *runtime.MemStats) {
	var waits, services, gpus, sims, lates []float64
	perShard := make(map[int]float64)
	for _, s := range samples {
		lates = append(lates, s.late.Seconds()*1e3)
		if s.failed {
			continue
		}
		waits = append(waits, s.resp.WaitMs)
		services = append(services, s.latencyMs()-s.resp.WaitMs)
		gpus = append(gpus, s.resp.GPUMs)
		sims = append(sims, s.resp.LatencyMs)
		perShard[s.resp.Shard]++
	}
	var maxShard float64
	for _, n := range perShard {
		maxShard = math.Max(maxShard, n)
	}
	n := float64(len(samples))
	pl := res.perLayer
	pl["serve.wait_ms_p50"] = median(waits)
	pl["serve.wait_ms_p95"] = percentile(waits, 0.95)
	pl["serve.service_ms_p50"] = median(services)
	pl["serve.mean_batch"] = ratio(float64(c.served), float64(c.windows))
	pl["serve.reuse_factor"] = ratio(float64(c.served), float64(c.runBatches))
	pl["serve.windows"] = float64(c.windows)
	pl["serve.dropped_windows"] = float64(c.dropped)
	pl["serve.rejected"] = float64(c.rejected)
	pl["serve.cancelled"] = float64(c.cancelled)
	pl["serve.errors"] = float64(c.errors)
	pl["serve.cold_builds"] = float64(c.coldBuilds)
	pl["serve.installs"] = float64(c.installs)
	pl["serve.fleet_rebalanced"] = float64(c.rebalanced)
	pl["serve.shard_max_share"] = ratio(maxShard, float64(len(waits)))
	pl["serve.alloc_kb_per_req"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, n)
	pl["serve.mallocs_per_req"] = ratio(float64(m1.Mallocs-m0.Mallocs), n)
	pl["serve.sim_gpu_ms_mean"] = mean(gpus)
	pl["serve.sim_latency_ms_p50"] = median(sims)
	pl["serve.req_p99_ms"] = percentile(okLatencies(samples), 0.99)
	pl["serve.gen_late_ms_max"] = percentile(lates, 1)
}

// windowShape is what the forward cost of a served window depends on.
type windowShape struct{ bench, batch, length int }

// replayWindows replays, outside the server, each distinct window shape
// the traced pass observed — the calls serveBatch makes, in order, one
// span each — and returns the median over traced requests of service
// time minus the replayed forward: what validation, the cost model,
// stats and the reply cost inside the server.
func (d *driver) replayWindows(traced []sample) float64 {
	shapeOf := func(s sample) windowShape {
		ref := d.refs[s.bench]
		length := ref.eng.Inst.Length
		if s.item >= 0 {
			length = len(ref.pool[s.item].seq)
		}
		return windowShape{s.bench, s.resp.BatchSize, length}
	}
	example := make(map[windowShape]sample)
	var shapes []windowShape
	for _, s := range traced {
		if s.failed {
			continue
		}
		sh := shapeOf(s)
		if _, ok := example[sh]; !ok {
			example[sh] = s
			shapes = append(shapes, sh)
		}
	}
	sort.Slice(shapes, func(i, j int) bool {
		a, b := shapes[i], shapes[j]
		if a.bench != b.bench {
			return a.bench < b.bench
		}
		if a.batch != b.batch {
			return a.batch < b.batch
		}
		return a.length < b.length
	})

	root := d.tr.open(0, "replay", nil)
	kb, sim := kernels.NewBuilder(gpu.TegraX1()), gpu.NewSimulator(gpu.TegraX1())
	forwardMs := make(map[windowShape]float64)
	for _, sh := range shapes {
		ref, ex := d.refs[sh.bench], example[sh]
		b, net := ref.eng.B, ref.eng.Inst.Net
		corpus, _ := ref.eng.Inst.AccSeqs()
		seqs := make([][]tensor.Vector, sh.batch)
		lens := make([]int, sh.batch)
		for i := range seqs {
			if ex.item >= 0 {
				seqs[i], lens[i] = ref.pool[ex.item].seq, sh.length
			} else {
				// Corpus members run the profile-sized sample and are
				// costed at the Table II length, as in the server.
				seqs[i], lens[i] = corpus[i%len(corpus)], b.Length
			}
		}
		var fwd []float64
		for rep := 0; rep < replayReps; rep++ {
			w := d.tr.open(root, "replay.window", map[string]any{
				"bench": ref.bench, "batch": sh.batch, "length": sh.length})
			var ks []gpu.KernelSpec
			if ex.item >= 0 {
				d.tr.timed(w, "lstm.check_sequence", nil, func() { _ = net.CheckSequence(seqs[0]) })
				d.tr.timed(w, "kernels.request_batch_ragged", nil, func() {
					ks = kb.RequestBatchRagged(b.Hidden, b.Layers, lens)
				})
			} else {
				// The server caches this cost per batch size; the span
				// shows what a cache miss pays.
				d.tr.timed(w, "kernels.request_batch", nil, func() {
					ks = kb.RequestBatch(b.Hidden, b.Length, b.Layers, sh.batch)
				})
			}
			d.tr.timed(w, "gpu.sim_run", nil, func() { sim.Run(ks) })
			took := d.tr.timed(w, "lstm.classify_batch", nil, func() { _, _ = net.ClassifyBatchE(seqs, ref.opts) })
			d.tr.close(w)
			fwd = append(fwd, took.Seconds()*1e3)
		}
		forwardMs[sh] = median(fwd)
	}
	d.tr.close(root)

	var overhead []float64
	for _, s := range traced {
		if !s.failed {
			overhead = append(overhead, s.latencyMs()-s.resp.WaitMs-forwardMs[shapeOf(s)])
		}
	}
	return median(overhead)
}
