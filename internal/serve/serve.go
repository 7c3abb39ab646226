// Package serve is the concurrent inference front-end over the
// simulator: the production-shaped serving loop the ROADMAP's north
// star asks for, built so the paper's §II-C trade-off can be exercised
// as a running system rather than a one-shot table.
//
// A Server owns a registry of per-benchmark core.Engines (lazily built
// on the first request, then shared by every worker), a bounded request
// queue, and a batching window: requests for the same benchmark that
// arrive within Config.BatchWindow of each other execute as one exact
// batch-B GPU launch sequence (kernels.RequestBatch — the §II-C
// server-style weight reuse), so each request's simulated latency is
// its queueing wait plus its batch's GPU time. A worker pool drains the
// batches: each worker prices its window in closed form
// (kernels.Builder.RequestBatchRaggedMs adds up the simulator's
// per-launch cycles, with no per-window simulation and no cache) and
// runs real per-request inference at the engine's serving operating
// point, scoring accuracy against the corpus reference labels.
//
// The serving path is error-returning end to end: request validation
// goes through experiments.Lookup, inference through
// lstm.Network.ClassifyBatchE or RunWavefrontE, and evaluation through
// core.Engine's EvaluateSetE, so a malformed request costs one error
// response instead of the process. The batching and worker goroutines
// are counted in the Server's WaitGroup and Close drains the queue
// gracefully: accepted requests are still served, and no goroutine
// outlives Close.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobilstm/internal/core"
	"mobilstm/internal/experiments"
	"mobilstm/internal/gpu"
	"mobilstm/internal/kernels"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
)

// Sentinel errors of the serving path.
var (
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrQueueFull reports that the bounded request queue was full — the
	// server is saturated and the caller should back off.
	ErrQueueFull = errors.New("serve: request queue full")
)

// AutoSet selects the serving threshold set automatically per
// benchmark: the accuracy-oriented set (§VI-C), the most aggressive one
// whose loss stays user-imperceptible.
const AutoSet = -1

// Config shapes a Server.
type Config struct {
	// GPU is the simulated platform the serving engine is calibrated
	// against (the fleet's reference device); Profile the model
	// evaluation profile (quick or full shapes).
	GPU     gpu.Config
	Profile model.Profile

	// Device, when set (non-empty Name), is the simulated device class
	// this server's *cost model* runs on: batch GPU time, cold-start
	// build cost and utilization are priced on Device while the
	// classification artifact stays calibrated on GPU. The fleet layer
	// uses this to model heterogeneous shards that serve one shared,
	// bitwise-identical engine artifact. Zero value means Device == GPU.
	Device gpu.Config

	// Cache, when non-nil, is a shared warm-engine cache: engine builds
	// consult it first (a hit adopts the artifact and pays only the
	// install cost), and a cold build publishes its artifact for peers —
	// the GKM-style cache-propagation mechanism behind fleet pre-warming.
	Cache *EngineCache

	// buildHook, when non-nil, runs at the start of every engine build
	// and aborts it when it errors. Test seam for transient build
	// failures; nil in production.
	buildHook func(bench string) error

	// Mode is the execution flow served (default Combined); Set the
	// threshold set, or AutoSet for the per-benchmark AO point.
	Mode sched.Mode
	Set  int

	// Workers is the worker-pool size; QueueDepth bounds the request
	// queue; MaxBatch caps the batching window's batch size; and
	// BatchWindow is how long a partial batch waits for company before
	// dispatching anyway (<= 0 dispatches immediately, i.e. no
	// batching).
	Workers     int
	QueueDepth  int
	MaxBatch    int
	BatchWindow time.Duration

	// RequestTimeout bounds each request's end-to-end time when > 0;
	// it composes with the caller's context.
	RequestTimeout time.Duration
}

// DefaultConfig serves the combined optimization at the AO point on the
// Tegra X1.
func DefaultConfig() Config {
	return Config{
		GPU:         gpu.TegraX1(),
		Profile:     model.Default(),
		Mode:        sched.Combined,
		Set:         AutoSet,
		Workers:     2,
		QueueDepth:  64,
		MaxBatch:    4,
		BatchWindow: 2 * time.Millisecond,
	}
}

// Request is one inference request.
type Request struct {
	// Bench names the Table II benchmark to serve.
	Bench string
	// Seq is the input sequence. A nil Seq asks the server to pick a
	// corpus sequence (round-robin over the benchmark's accuracy
	// samples), whose reference label it knows.
	Seq []tensor.Vector
	// Ref is the reference label of a caller-supplied Seq; negative
	// means unknown (the response is then not accuracy-scored). Ignored
	// when Seq is nil.
	Ref int
}

// Response is the served result of one request.
type Response struct {
	Bench string
	// Class is the classification the serving operating point produced.
	Class int
	// Ref is the reference label scored against, or -1 if unknown.
	Ref int
	// Set is the threshold set the benchmark is served at.
	Set int
	// BatchSize is the number of live requests in this request's batch.
	BatchSize int
	// WaitMs is the real queueing wait (arrival to dispatch); GPUMs the
	// simulated batch GPU time; ColdMs the engine-materialization cost
	// charged to this request's window (a cold JIT build, or the smaller
	// warm-artifact install, on the first window after the engine came
	// up under traffic; zero once the engine is warm); LatencyMs their
	// sum — the end-to-end response time of the §II-C batching trade
	// extended with the cold-start term.
	WaitMs    float64
	GPUMs     float64
	ColdMs    float64
	LatencyMs float64
	// Cold marks a response whose window paid a cold engine *build* (not
	// a warm install): the fleet's cold-start p99 is measured over these.
	Cold bool
	// Shard is the fleet shard that served the request; 0 on a
	// standalone server.
	Shard int
}

// request is the queued form of a Request.
type request struct {
	Request
	ctx     context.Context
	arrival time.Time
	resp    chan result
}

type result struct {
	r   *Response
	err error
}

// Server is the concurrent inference front-end. Create with New, stop
// with Close.
type Server struct {
	cfg   Config
	start time.Time

	queue    chan *request
	dispatch chan []*request
	daemons  sync.WaitGroup // the batcher and the workers; Close waits on it

	mu      sync.Mutex
	closed  bool
	engines map[string]*engineSlot

	statsMu sync.Mutex
	stats   map[string]*benchStats
}

// New starts a server: one batching daemon plus the worker pool, each
// counted in s.daemons before it is spawned and collected by Close.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		queue:    make(chan *request, cfg.QueueDepth),
		dispatch: make(chan []*request),
		engines:  make(map[string]*engineSlot),
		stats:    make(map[string]*benchStats),
	}
	s.daemons.Add(1)
	go s.batchLoop()
	for i := 0; i < cfg.Workers; i++ {
		s.daemons.Add(1)
		go s.workerLoop()
	}
	return s
}

// Submit enqueues one request and blocks until its response, the
// context's end, or the configured request timeout. Unknown benchmark
// names are rejected immediately (error-returning, not panicking).
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	if _, err := experiments.Lookup(req.Bench); err != nil {
		return nil, err
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	r := &request{
		Request: req,
		ctx:     ctx,
		arrival: time.Now(),
		resp:    make(chan result, 1),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// The enqueue attempt is non-blocking, so holding the lock here is
	// cheap; it is what makes close(s.queue) safe against late sends.
	select {
	case s.queue <- r:
		s.mu.Unlock()
		s.bump(req.Bench, func(st *benchStats) { st.submitted++ })
	default:
		s.mu.Unlock()
		s.bump(req.Bench, func(st *benchStats) { st.rejected++ })
		return nil, ErrQueueFull
	}

	select {
	case res := <-r.resp:
		return res.r, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Warm builds a benchmark's serving engine (including its AO threshold
// sweep when Set is AutoSet) ahead of traffic, so first-request latency
// reflects steady-state serving rather than engine construction: the
// pending engine-materialization charge is absorbed here instead of
// being billed to the first request window. It returns the build error,
// if any; concurrent Warm calls share one build, and a failed build is
// retried by the next Warm or request instead of poisoning the
// benchmark. Warm restarts only this benchmark's activity baseline, so
// its Stats throughput is measured over post-warm traffic — other
// benchmarks' windows are untouched (it used to reset the global uptime
// clock, silently deflating every already-serving benchmark's
// Throughput).
func (s *Server) Warm(bench string) error {
	if _, err := experiments.Lookup(bench); err != nil {
		return err
	}
	slot := s.engine(bench)
	if slot.err != nil {
		return slot.err
	}
	slot.takeCharge()
	s.bump(bench, func(st *benchStats) { st.first = time.Now() })
	return nil
}

// Close stops accepting requests, drains the queue and the batching
// window (every accepted request is still served), and waits for all
// daemons to exit. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.daemons.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.daemons.Wait()
}

// pendingBatch is one benchmark's open batching window.
type pendingBatch struct {
	reqs     []*request
	deadline time.Time
}

// batchLoop is the batching daemon: it groups queued requests by
// benchmark and dispatches a batch when it reaches MaxBatch or its
// window deadline — the queueing wait the §II-C analysis charges
// against server-style weight reuse. On queue close it flushes every
// open window so Close drains gracefully.
//
// The deadline timer follows the Stop-and-drain idiom: Reset on a timer
// whose tick already fired (a size-triggered dispatch raced the window
// deadline) would leave the stale tick in the channel, so a later
// select iteration would "fire" with the old timestamp and flush
// against a stale now. The timer is therefore disarmed (Stop + drain)
// before every Reset, left disarmed while no window is open, and flush
// always evaluates deadlines against a fresh time.Now().
func (s *Server) batchLoop() {
	defer s.daemons.Done()
	defer close(s.dispatch)
	pending := make(map[string]*pendingBatch)
	timer := time.NewTimer(time.Hour)
	armed := true
	// disarm stops the timer and drains a tick that fired before the
	// Stop landed, so the channel is provably empty afterwards.
	disarm := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		armed = false
	}
	disarm()

	flush := func(now time.Time, all bool) {
		for _, name := range sortedBatchKeys(pending) {
			pb := pending[name]
			if all || !pb.deadline.After(now) {
				delete(pending, name)
				s.dispatch <- pb.reqs
			}
		}
	}

	for {
		var timeC <-chan time.Time
		if next, ok := earliestDeadline(pending); ok {
			if armed {
				disarm()
			}
			timer.Reset(time.Until(next))
			armed = true
			timeC = timer.C
		} else if armed {
			disarm()
		}
		select {
		case r, ok := <-s.queue:
			if !ok {
				flush(time.Time{}, true)
				return
			}
			pb := pending[r.Bench]
			if pb == nil {
				pb = &pendingBatch{deadline: r.arrival.Add(s.cfg.BatchWindow)}
				pending[r.Bench] = pb
			}
			pb.reqs = append(pb.reqs, r)
			if len(pb.reqs) >= s.cfg.MaxBatch || s.cfg.BatchWindow <= 0 {
				delete(pending, r.Bench)
				s.dispatch <- pb.reqs
			}
		case <-timeC:
			// The tick is consumed, so the timer is disarmed by
			// definition; deadlines are re-evaluated against the wall
			// clock, not the (possibly delayed) tick timestamp.
			armed = false
			flush(time.Now(), false)
		}
	}
}

// earliestDeadline returns the soonest open-window deadline.
func earliestDeadline(pending map[string]*pendingBatch) (time.Time, bool) {
	var next time.Time
	found := false
	for _, pb := range pending {
		if !found || pb.deadline.Before(next) {
			next = pb.deadline
			found = true
		}
	}
	return next, found
}

// sortedBatchKeys keeps multi-benchmark dispatch order deterministic.
func sortedBatchKeys(pending map[string]*pendingBatch) []string {
	names := make([]string, 0, len(pending))
	for name := range pending {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The process-wide worker count behind the wavefront decision: every
// worker of every Server in the process — a Fleet's shards included —
// counts in liveWorkers while it runs, and in busyWorkers while it
// serves a window. They are package state because what they stand for,
// the CPUs, belongs to the process, not to one Server.
var liveWorkers, busyWorkers atomic.Int64

// spareCore reports whether the calling worker, counted busy, may put a
// second core under its window's forward: fewer workers are busy than
// there are workers and than GOMAXPROCS, so some worker is idle and
// some processor is free for it — never with GOMAXPROCS 1.
func spareCore() bool {
	return busyWorkers.Load() < min(liveWorkers.Load(), int64(runtime.GOMAXPROCS(0)))
}

// workerLoop serves dispatched batches until the batcher closes the
// dispatch channel.
func (s *Server) workerLoop() {
	defer s.daemons.Done()
	liveWorkers.Add(1)
	defer liveWorkers.Add(-1)
	for batch := range s.dispatch {
		busyWorkers.Add(1)
		s.serveBatch(batch)
		busyWorkers.Add(-1)
	}
}

// classify runs a window's forward: one ClassifyBatchE over its
// members, or, for a lone member while the process has a spare core,
// RunWavefrontE, which pipelines a stacked net's layers onto that core
// (and runs the layer loop where there is nothing to pipeline). Both
// give the serial Run's logits bit for bit; wavefront reports whether
// the layers ran pipelined.
func classify(net *lstm.Network, seqs [][]tensor.Vector, opt lstm.RunOptions) (classes []int, wavefront bool, err error) {
	if len(seqs) != 1 || !spareCore() {
		classes, err = net.ClassifyBatchE(seqs, opt)
		return classes, false, err
	}
	logits, wavefront, err := net.RunWavefrontE(seqs[0], opt)
	if err != nil {
		return nil, wavefront, err
	}
	return []int{tensor.ArgMax(logits)}, wavefront, nil
}

// serveBatch executes one batch: simulated batch-B GPU time for the
// launch sequence, then ONE real batched inference (ClassifyBatchE)
// covering every valid request in the window — the host-side
// counterpart of the §II-C server-style weight reuse the cost model
// charges, bitwise identical per member to the serial serving path. A
// window left with one valid member may run it as a layer wavefront
// instead (classify), equally bitwise.
// Requests whose context ended while queued are dropped (and counted)
// before the GPU launch is sized; malformed caller-supplied sequences
// get per-request error responses without sinking the rest of the
// batch.
//
// Accounting invariant: every dispatched window bumps batches exactly
// once; a window that serves nobody (all cancelled, all malformed, or
// an engine/classify error) additionally bumps dropped, so MeanBatch
// and the realized weight-reuse factor reflect dispatch reality instead
// of silently skipping empty windows. Every bump happens before the
// replies it accounts for are sent, so a caller that has its response
// sees it counted in Stats.
func (s *Server) serveBatch(batch []*request) {
	bench := batch[0].Bench
	slot := s.engine(bench)
	if slot.err != nil {
		s.bump(bench, func(st *benchStats) {
			st.errors += int64(len(batch))
			st.batches++
			st.dropped++
		})
		for _, r := range batch {
			r.resp <- result{err: slot.err}
		}
		return
	}

	dispatched := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			s.bump(bench, func(st *benchStats) { st.cancelled++ })
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		s.bump(bench, func(st *benchStats) {
			st.batches++
			st.dropped++
		})
		return
	}

	// Resolve and validate every member before the batched launch:
	// corpus requests draw their round-robin sample in queue order, and
	// a malformed caller sequence is answered alone instead of failing
	// the whole window — once the window is accounted if nobody in it is
	// left to serve, before the launch otherwise.
	var rejected []*request
	var rejections []error
	seqs := make([][]tensor.Vector, 0, len(live))
	refs := make([]int, 0, len(live))
	lens := make([]int, 0, len(live))
	valid := live[:0]
	for _, r := range live {
		seq, ref := r.Seq, r.Ref
		if seq == nil {
			seq, ref = slot.corpus()
			// Corpus members run the profile-sized sample but are costed
			// at the benchmark's full Table II length like every exact
			// serving request.
			lens = append(lens, slot.eng.B.Length)
		} else {
			if err := slot.net().CheckSequence(seq); err != nil {
				s.bump(bench, func(st *benchStats) { st.errors++ })
				rejected, rejections = append(rejected, r), append(rejections, err)
				continue
			}
			if ref < 0 {
				ref = -1
			}
			lens = append(lens, len(seq))
		}
		seqs = append(seqs, seq)
		refs = append(refs, ref)
		valid = append(valid, r)
	}
	if len(valid) == 0 {
		s.bump(bench, func(st *benchStats) {
			st.batches++
			st.dropped++
		})
	}
	for i, r := range rejected {
		r.resp <- result{err: rejections[i]}
	}
	if len(valid) == 0 {
		return
	}

	gpuMs, err := slot.batchMsRagged(lens)
	if err == nil {
		var classes []int
		var wavefront bool
		classes, wavefront, err = classify(slot.net(), seqs, slot.opts)
		if err == nil {
			// The first successfully served window after the engine came
			// up absorbs the pending materialization charge: a cold JIT
			// build, or the smaller warm-artifact install. Warm engines
			// (and pre-warmed ones) carry no charge.
			coldMs, coldBuild := slot.takeCharge()
			s.bump(bench, func(st *benchStats) {
				st.batches++
				st.runBatches++
				if wavefront {
					st.wavefronts++
				}
				st.sumBatch += int64(len(valid))
				st.busyMs += gpuMs + coldMs
			})
			for i, r := range valid {
				waitMs := dispatched.Sub(r.arrival).Seconds() * 1e3
				resp := &Response{
					Bench:     bench,
					Class:     classes[i],
					Ref:       refs[i],
					Set:       slot.set,
					BatchSize: len(valid),
					WaitMs:    waitMs,
					GPUMs:     gpuMs,
					ColdMs:    coldMs,
					Cold:      coldBuild,
					LatencyMs: waitMs + gpuMs + coldMs,
				}
				s.bump(bench, func(st *benchStats) {
					st.served++
					st.waitSum += resp.WaitMs
					st.gpuSum += resp.GPUMs
					st.latencies = append(st.latencies, resp.LatencyMs)
					if resp.Cold {
						st.coldLats = append(st.coldLats, resp.LatencyMs)
					} else {
						st.warmLats = append(st.warmLats, resp.LatencyMs)
					}
					st.set = slot.set
					if resp.Ref >= 0 {
						st.scored++
						if resp.Class == resp.Ref {
							st.correct++
						}
					}
				})
				r.resp <- result{r: resp}
			}
			return
		}
	}
	s.bump(bench, func(st *benchStats) {
		st.errors += int64(len(valid))
		st.batches++
		st.dropped++
	})
	for _, r := range valid {
		r.resp <- result{err: err}
	}
}

// engineSlot is one benchmark's shared serving state: the engine (built
// once, then shared by every worker), the resolved threshold set and
// its run options, the corpus cursor, the pending engine-materialization
// charge, and the simulator and kernel builder that price a window in
// closed form (batchMsRagged: no cost is cached).
type engineSlot struct {
	once sync.Once
	err  error

	eng  *core.Engine
	set  int
	opts lstm.RunOptions

	// installed marks a slot that adopted a warm cache artifact instead
	// of paying the cold build.
	installed bool

	// chargeMs is the simulated engine-materialization cost on this
	// server's device class — the full JIT build on a cache miss, the
	// warm-artifact install on a hit. It is billed exactly once: charge
	// flips false when Warm or the first served window takes it.
	chargeMs   float64
	chargeCold bool
	charge     atomic.Bool

	cursor atomic.Int64

	sim *gpu.Simulator
	kb  *kernels.Builder
}

// takeCharge consumes the slot's pending engine-materialization charge:
// the milliseconds to add to the taking window's latency and whether
// that charge was a cold build (vs a warm-artifact install). At most
// one caller gets a non-zero charge.
func (slot *engineSlot) takeCharge() (ms float64, coldBuild bool) {
	if slot.charge.CompareAndSwap(true, false) {
		return slot.chargeMs, slot.chargeCold
	}
	return 0, false
}

// engine returns (building on first use) the slot for a benchmark. The
// sync.Once guard means concurrent first requests block on one build
// instead of racing — the failure mode the Engine.Baseline fix and its
// -race regression test pin down. A failed build is NOT latched: the
// poisoned slot is evicted from the registry, so the next request or
// Warm retries with a fresh slot instead of serving a transient
// EvaluateSetE failure for the server's lifetime.
func (s *Server) engine(bench string) *engineSlot {
	s.mu.Lock()
	slot, ok := s.engines[bench]
	if !ok {
		slot = &engineSlot{}
		s.engines[bench] = slot
	}
	s.mu.Unlock()
	slot.once.Do(func() {
		slot.build(bench, s.cfg)
		switch {
		case slot.err != nil:
		case slot.installed:
			s.bump(bench, func(st *benchStats) { st.installs++ })
		default:
			s.bump(bench, func(st *benchStats) { st.coldBuilds++ })
		}
	})
	if slot.err != nil {
		s.mu.Lock()
		if s.engines[bench] == slot {
			delete(s.engines, bench)
		}
		s.mu.Unlock()
	}
	return slot
}

// artifactKey identifies an engine artifact in the shared cache: the
// artifact is a pure function of benchmark, evaluation profile, served
// mode and threshold-set policy (all calibrated on the fleet's
// reference GPU), never of the shard's device class.
func artifactKey(bench string, cfg Config) string {
	return fmt.Sprintf("%s|%s|%d|%d", bench, cfg.Profile.Name, cfg.Mode, cfg.Set)
}

func (slot *engineSlot) build(bench string, cfg Config) {
	if cfg.buildHook != nil {
		if err := cfg.buildHook(bench); err != nil {
			slot.err = err
			return
		}
	}
	b, err := experiments.Lookup(bench)
	if err != nil {
		slot.err = err
		return
	}
	// The cost model runs on the shard's device class; the
	// classification artifact stays calibrated on the reference GPU so
	// every shard serves bitwise-identical classes.
	dev := cfg.Device
	if dev.Name == "" {
		dev = cfg.GPU
	}
	slot.sim = gpu.NewSimulator(dev)
	slot.kb = kernels.NewBuilder(dev)

	key := artifactKey(bench, cfg)
	if art, ok := cfg.Cache.Acquire(key); ok {
		// Warm path: adopt the peer-built artifact and pay only the
		// install cost (weight upload + unpack) instead of the JIT build.
		slot.eng, slot.set, slot.opts = art.Eng, art.Set, art.Opts
		slot.installed = true
		slot.chargeMs = slot.simMs(slot.kb.EngineInstall(b.Hidden, b.Layers))
		slot.chargeCold = false
		slot.charge.Store(true)
		return
	}
	// A miss registered this slot as the key's fleet-wide builder: every
	// exit below must settle the registration (Store on success, Abort on
	// failure) or peers block forever.
	slot.eng = core.NewEngine(b, cfg.Profile, cfg.GPU)
	slot.set = cfg.Set
	if slot.set == AutoSet {
		outs, err := slot.eng.SweepE(cfg.Mode)
		if err != nil {
			slot.err = err
			cfg.Cache.Abort(key)
			return
		}
		slot.set = core.AOSet(outs)
	}
	slot.opts = slot.eng.RunOptionsFor(cfg.Mode, slot.set)
	slot.chargeMs = slot.simMs(slot.kb.EngineBuild(b.Hidden, b.Layers))
	slot.chargeCold = true
	slot.charge.Store(true)
	cfg.Cache.Store(key, &EngineArtifact{Eng: slot.eng, Set: slot.set, Opts: slot.opts})
}

// simMs prices a launch sequence on the slot's device class.
func (slot *engineSlot) simMs(ks []gpu.KernelSpec) float64 {
	return slot.sim.Run(ks).Seconds * 1e3
}

func (slot *engineSlot) net() *lstm.Network { return slot.eng.Inst.Net }

// corpus returns the next round-robin accuracy sample and its reference
// label.
func (slot *engineSlot) corpus() ([]tensor.Vector, int) {
	seqs, refs := slot.eng.Inst.AccSeqs()
	i := int((slot.cursor.Add(1) - 1) % int64(len(seqs)))
	return seqs[i], refs[i]
}

// batchMsRagged returns the simulated GPU milliseconds of a window of
// per-request lengths at the benchmark's Table II width: the active-set
// launch sequence (kernels.RequestBatchRagged) priced in closed form,
// which equal lengths reduce to the batch-B RequestBatch sequence.
func (slot *engineSlot) batchMsRagged(lens []int) (ms float64, err error) {
	defer tensor.Guard(&err)
	b := slot.eng.B
	return slot.kb.RequestBatchRaggedMs(slot.sim, b.Hidden, b.Layers, lens), nil
}
