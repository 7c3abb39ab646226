package serve

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilstm/internal/experiments"
	"mobilstm/internal/gpu"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
)

// tinyConfig keeps serving tests fast: capped model shapes and an
// explicit threshold set (no AO sweep on engine build).
func tinyConfig() Config {
	return Config{
		GPU: gpu.TegraX1(),
		Profile: model.Profile{Name: "tiny", HiddenCap: 64, LengthCap: 16,
			AccSamples: 10, PredictorSamples: 3, StatSamples: 2},
		Mode:        sched.Combined,
		Set:         4,
		Workers:     2,
		QueueDepth:  64,
		MaxBatch:    4,
		BatchWindow: 2 * time.Millisecond,
	}
}

// TestServeConcurrent is the headline race test: many goroutines
// serving two benchmarks through one server, sharing lazily built
// engines. Run under -race it pins the engine registry, the batching
// window, and the stats counters.
func TestServeConcurrent(t *testing.T) {
	s := New(tinyConfig())
	defer s.Close()

	const perBench = 8
	var wg sync.WaitGroup
	for _, bench := range []string{"MR", "BABI"} {
		for i := 0; i < perBench; i++ {
			wg.Add(1)
			go func(bench string) {
				defer wg.Done()
				resp, err := s.Submit(context.Background(), Request{Bench: bench})
				if err != nil {
					t.Errorf("%s: %v", bench, err)
					return
				}
				if resp.Bench != bench || resp.Ref < 0 {
					t.Errorf("%s: bad response %+v", bench, resp)
				}
				if resp.LatencyMs < resp.GPUMs {
					t.Errorf("%s: latency %v < gpu %v", bench, resp.LatencyMs, resp.GPUMs)
				}
			}(bench)
		}
	}
	wg.Wait()

	snap := s.Stats()
	if len(snap.Benches) != 2 {
		t.Fatalf("stats cover %d benchmarks, want 2", len(snap.Benches))
	}
	for _, bs := range snap.Benches {
		if bs.Served != perBench {
			t.Errorf("%s: served %d, want %d", bs.Bench, bs.Served, perBench)
		}
		if bs.Scored != perBench {
			t.Errorf("%s: scored %d, want %d", bs.Bench, bs.Scored, perBench)
		}
		if bs.P95LatencyMs < bs.P50LatencyMs {
			t.Errorf("%s: p95 %v < p50 %v", bs.Bench, bs.P95LatencyMs, bs.P50LatencyMs)
		}
		if bs.Set != 4 {
			t.Errorf("%s: served at set %d, want 4", bs.Bench, bs.Set)
		}
	}
	if !strings.Contains(snap.Report().String(), "MR") {
		t.Error("report does not mention MR")
	}
}

// TestBatchBySize: with an effectively infinite window, the batch must
// form as soon as MaxBatch requests are queued.
func TestBatchBySize(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxBatch = 3
	cfg.BatchWindow = time.Hour
	s := New(cfg)
	defer s.Close()

	var wg sync.WaitGroup
	sizes := make(chan int, cfg.MaxBatch)
	for i := 0; i < cfg.MaxBatch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Bench: "MR"})
			if err != nil {
				t.Error(err)
				return
			}
			sizes <- resp.BatchSize
		}()
	}
	wg.Wait()
	close(sizes)
	for size := range sizes {
		if size != cfg.MaxBatch {
			t.Fatalf("batch size %d, want %d (size-triggered dispatch)", size, cfg.MaxBatch)
		}
	}
}

// TestBatchByDeadline: fewer requests than MaxBatch must still dispatch
// once the window deadline passes.
func TestBatchByDeadline(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxBatch = 8
	cfg.BatchWindow = 10 * time.Millisecond
	s := New(cfg)
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Bench: "MR"})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.BatchSize >= cfg.MaxBatch {
				t.Errorf("batch size %d reached MaxBatch; want deadline dispatch", resp.BatchSize)
			}
		}()
	}
	wg.Wait()
}

// TestDrainOnClose: requests accepted before Close must be served, and
// Submit after Close must fail with ErrClosed.
func TestDrainOnClose(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = time.Hour // only Close's flush can dispatch these
	cfg.MaxBatch = 64
	s := New(cfg)

	const n = 3
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), Request{Bench: "MR"})
			errs <- err
		}()
	}
	// Wait until all three are counted as submitted, then Close: the
	// flush path must serve them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.Stats()
		if len(snap.Benches) == 1 && snap.Benches[0].Submitted == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never registered as submitted")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("accepted request not drained: %v", err)
		}
	}

	if _, err := s.Submit(context.Background(), Request{Bench: "MR"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if got := s.Stats().Benches[0].Served; got != n {
		t.Fatalf("served %d, want %d", got, n)
	}
}

// TestContextCancellationMidQueue: a request cancelled while waiting in
// an open batching window returns the context error and is dropped from
// the batch before the GPU launch is sized.
func TestContextCancellationMidQueue(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 64
	s := New(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Bench: "MR"})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.Stats()
		if len(snap.Benches) == 1 && snap.Benches[0].Submitted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never registered as submitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit returned %v, want context.Canceled", err)
	}
	s.Close() // flushes the window; the dead request must be dropped
	snap := s.Stats()
	if got := snap.Benches[0].Cancelled; got != 1 {
		t.Fatalf("cancelled count %d, want 1", got)
	}
	if got := snap.Benches[0].Served; got != 0 {
		t.Fatalf("served %d, want 0", got)
	}
}

// TestRequestTimeout: the configured per-request budget bounds a
// request stuck in a never-closing window.
func TestRequestTimeout(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 64
	cfg.RequestTimeout = 20 * time.Millisecond
	s := New(cfg)
	defer s.Close()

	_, err := s.Submit(context.Background(), Request{Bench: "MR"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit returned %v, want deadline exceeded", err)
	}
}

// TestUnknownBenchmark: validation is error-returning, not panicking.
func TestUnknownBenchmark(t *testing.T) {
	s := New(tinyConfig())
	defer s.Close()
	if _, err := s.Submit(context.Background(), Request{Bench: "NOPE"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	} else if !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("error %q does not name the benchmark", err)
	}
}

// TestCallerSequence: a caller-supplied sequence with an unknown label
// serves unscored.
func TestCallerSequence(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = 0 // dispatch immediately
	s := New(cfg)
	defer s.Close()

	// Borrow a real corpus sequence so shapes are valid.
	warm, err := s.Submit(context.Background(), Request{Bench: "MR"})
	if err != nil {
		t.Fatal(err)
	}
	_ = warm
	s.mu.Lock()
	slot := s.engines["MR"]
	s.mu.Unlock()
	seqs, _ := slot.eng.Inst.AccSeqs()

	resp, err := s.Submit(context.Background(), Request{Bench: "MR", Seq: seqs[0], Ref: -1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ref != -1 {
		t.Fatalf("unscored request got ref %d", resp.Ref)
	}
	snap := s.Stats()
	if got := snap.Benches[0].Scored; got != 1 { // only the warm-up scored
		t.Fatalf("scored %d, want 1", got)
	}
}

// TestMalformedSequence: a shape-violating request costs one error
// response, not the process — the tensor.Guard contract of the serving
// entry points (ClassifyBatchE, RunWavefrontE).
func TestMalformedSequence(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = 0
	s := New(cfg)
	defer s.Close()

	_, err := s.Submit(context.Background(), Request{Bench: "MR", Seq: nil})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong input width: one float per step instead of Input().
	bad := tensor.NewVector(1)
	_, err = s.Submit(context.Background(), Request{Bench: "MR", Seq: []tensor.Vector{bad}, Ref: -1})
	if err == nil {
		t.Fatal("malformed sequence served without error")
	}
	// The server must still be live.
	if _, err := s.Submit(context.Background(), Request{Bench: "MR"}); err != nil {
		t.Fatalf("server dead after malformed request: %v", err)
	}
}

// TestCloseIdempotent guards the double-Close path.
func TestCloseIdempotent(t *testing.T) {
	s := New(tinyConfig())
	s.Close()
	s.Close()
}

// TestBatchWindowTimerStaleTick is the regression test for the
// Reset-without-drain timer bug: size-triggered dispatches racing a
// tight window deadline used to leave a stale tick in the timer
// channel, so a later iteration flushed against an old timestamp. The
// test hammers exactly that interleaving — full windows dispatched by
// size while a second benchmark relies on the deadline — and every
// request must still be served promptly.
func TestBatchWindowTimerStaleTick(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxBatch = 2
	cfg.BatchWindow = time.Millisecond
	s := New(cfg)
	defer s.Close()
	for _, bench := range []string{"MR", "BABI"} {
		if err := s.Warm(bench); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 25
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var wg sync.WaitGroup
		submit := func(bench string) {
			defer wg.Done()
			if _, err := s.Submit(ctx, Request{Bench: bench}); err != nil {
				t.Errorf("round %d %s: %v", i, bench, err)
			}
		}
		// Two MR requests fill a window (size-triggered dispatch, racing
		// the 1ms deadline); the lone BABI request can only dispatch by
		// deadline — a stale tick would strand or mistime it.
		wg.Add(3)
		go submit("MR")
		go submit("MR")
		go submit("BABI")
		wg.Wait()
		cancel()
		if t.Failed() {
			t.FailNow()
		}
	}

	for _, bs := range s.Stats().Benches {
		want := int64(rounds)
		if bs.Bench == "MR" {
			want = 2 * rounds
		}
		if bs.Served != want {
			t.Errorf("%s: served %d, want %d", bs.Bench, bs.Served, want)
		}
	}
}

// TestTransientBuildErrorRetries is the regression test for the sticky
// engine-build failure: a transient build error used to latch in the
// slot's sync.Once and poison the benchmark for the server's lifetime.
// Now the failed slot is evicted, so once the fault clears the same
// benchmark serves.
func TestTransientBuildErrorRetries(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	cfg := tinyConfig()
	cfg.BatchWindow = 0
	cfg.buildHook = func(string) error {
		if fail.Load() {
			return errors.New("transient build fault")
		}
		return nil
	}
	s := New(cfg)
	defer s.Close()

	if _, err := s.Submit(context.Background(), Request{Bench: "MR"}); err == nil {
		t.Fatal("request served through a failing build")
	}
	if err := s.Warm("MR"); err == nil {
		t.Fatal("Warm succeeded through a failing build")
	}

	fail.Store(false)
	resp, err := s.Submit(context.Background(), Request{Bench: "MR"})
	if err != nil {
		t.Fatalf("build failure latched; retry did not serve: %v", err)
	}
	if resp.Class < 0 {
		t.Fatalf("bad response %+v", resp)
	}
}

// TestStatsBenchesSortedByName pins Stats' order: the benchmarks come
// back sorted by name, never in the order of the map that holds them.
// A failing build keeps it engine-free; each Submit still counts.
func TestStatsBenchesSortedByName(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = 0
	cfg.buildHook = func(string) error { return errors.New("no engine in an order test") }
	s := New(cfg)
	defer s.Close()
	names := experiments.BenchmarkNames()
	for _, b := range names {
		if _, err := s.Submit(context.Background(), Request{Bench: b}); err == nil {
			t.Fatalf("%s served through a failing build", b)
		}
	}
	// Each snapshot walks the map afresh, from a new random start.
	for range 5 {
		var got []string
		for _, b := range s.Stats().Benches {
			got = append(got, b.Bench)
		}
		if len(got) != len(names) || !slices.IsSorted(got) {
			t.Fatalf("Stats().Benches in order %v, want all %d benchmarks sorted by name", got, len(names))
		}
	}
}

// TestWarmKeepsPerBenchBaselines is the two-benchmark regression test
// for the Warm uptime reset: warming BABI must not restart MR's
// activity window, so MR's Throughput cannot inflate (the old bug
// reset the global clock, deflating or distorting every
// already-serving benchmark's rate).
func TestWarmKeepsPerBenchBaselines(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = 0
	s := New(cfg)
	defer s.Close()

	if err := s.Warm("MR"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(context.Background(), Request{Bench: "MR"}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().Benches[0]
	if before.Throughput <= 0 || before.WindowS <= 0 {
		t.Fatalf("MR not measuring: %+v", before)
	}

	time.Sleep(30 * time.Millisecond)
	if err := s.Warm("BABI"); err != nil {
		t.Fatal(err)
	}
	snap := s.Stats()
	var mr, babi BenchSnapshot
	for _, bs := range snap.Benches {
		switch bs.Bench {
		case "MR":
			mr = bs
		case "BABI":
			babi = bs
		}
	}
	if mr.WindowS < before.WindowS+0.025 {
		t.Fatalf("MR window shrank after warming BABI: %.3fs -> %.3fs", before.WindowS, mr.WindowS)
	}
	if mr.Throughput > before.Throughput {
		t.Fatalf("MR throughput inflated by warming BABI: %.2f -> %.2f", before.Throughput, mr.Throughput)
	}
	if babi.WindowS >= mr.WindowS {
		t.Fatalf("BABI window %.3fs not younger than MR's %.3fs", babi.WindowS, mr.WindowS)
	}
}

// TestColdStartCharge pins the cold-start accounting on a standalone
// server: the first served window after an under-traffic engine build
// absorbs the measured build cost, later windows are warm, and the
// stats split the two populations.
func TestColdStartCharge(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = 0
	s := New(cfg)
	defer s.Close()

	first, err := s.Submit(context.Background(), Request{Bench: "MR"})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Cold || first.ColdMs <= 0 {
		t.Fatalf("first response not cold-charged: %+v", first)
	}
	if first.LatencyMs < first.ColdMs {
		t.Fatalf("latency %.2f excludes cold charge %.2f", first.LatencyMs, first.ColdMs)
	}
	second, err := s.Submit(context.Background(), Request{Bench: "MR"})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cold || second.ColdMs != 0 {
		t.Fatalf("second response still charged: %+v", second)
	}

	b := s.Stats().Benches[0]
	if b.ColdBuilds != 1 || b.Installs != 0 {
		t.Fatalf("ColdBuilds=%d Installs=%d, want 1/0", b.ColdBuilds, b.Installs)
	}
	if b.ColdServed != 1 {
		t.Fatalf("ColdServed=%d, want 1", b.ColdServed)
	}
	if b.ColdP99Ms <= b.WarmP99Ms {
		t.Fatalf("cold p99 %.2f not above warm p99 %.2f", b.ColdP99Ms, b.WarmP99Ms)
	}
}
