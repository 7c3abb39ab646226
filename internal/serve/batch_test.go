package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
)

// slotFor warms a benchmark and returns its engine slot for
// white-box access to the corpus and network.
func slotFor(t *testing.T, s *Server, bench string) *engineSlot {
	t.Helper()
	if err := s.Warm(bench); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engines[bench]
}

// TestWindowDispatchesOneRunBatch pins the batched serving contract: a
// full window of N queued requests executes exactly one batched
// forward launch (RunBatches == 1) and every response carries the
// class the serial path would have produced for the same sequence.
func TestWindowDispatchesOneRunBatch(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxBatch = 4
	cfg.BatchWindow = time.Hour // size-triggered dispatch only
	s := New(cfg)
	defer s.Close()

	slot := slotFor(t, s, "MR")
	seqs, refs := slot.eng.Inst.AccSeqs()
	want := make([]int, cfg.MaxBatch)
	for i := 0; i < cfg.MaxBatch; i++ {
		class, err := slot.net().ClassifyE(seqs[i], slot.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = class
	}

	var wg sync.WaitGroup
	got := make([]int, cfg.MaxBatch)
	for i := 0; i < cfg.MaxBatch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Bench: "MR", Seq: seqs[i], Ref: refs[i]})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = resp.Class
			if resp.BatchSize != cfg.MaxBatch {
				t.Errorf("batch size %d, want %d", resp.BatchSize, cfg.MaxBatch)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	equivtest.Classes(t, "window", got, want)

	snap := s.Stats()
	b := snap.Benches[0]
	if b.RunBatches != 1 || b.Wavefronts != 0 {
		t.Fatalf("RunBatches %d, Wavefronts %d, want exactly 1 batched launch for the window", b.RunBatches, b.Wavefronts)
	}
	if b.Served != int64(cfg.MaxBatch) {
		t.Fatalf("served %d, want %d", b.Served, cfg.MaxBatch)
	}
	if b.MeanBatch != float64(cfg.MaxBatch) {
		t.Fatalf("mean batch %.1f, want %d", b.MeanBatch, cfg.MaxBatch)
	}
}

// TestLoneWindowWavefrontOnSpareCore pins when a window's forward runs
// as a layer wavefront — a lone valid member of a stacked net outside
// Inter while the process has an idle worker and GOMAXPROCS > 1 — and
// that either forward answers with the serial path's class. BABI has
// three layers to pipeline, MR one.
func TestLoneWindowWavefrontOnSpareCore(t *testing.T) {
	cases := []struct {
		name           string
		bench          string
		procs, workers int
		mode           sched.Mode
		want           bool
	}{
		{"intra", "BABI", 2, 2, sched.Intra, true},
		{"baseline", "BABI", 4, 2, sched.Baseline, true},
		{"one worker", "BABI", 2, 1, sched.Intra, false},
		{"GOMAXPROCS 1", "BABI", 1, 2, sched.Intra, false},
		{"combined", "BABI", 2, 2, sched.Combined, false},
		{"one layer", "MR", 2, 2, sched.Intra, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			cfg := tinyConfig()
			cfg.Mode, cfg.Workers, cfg.MaxBatch, cfg.BatchWindow = tc.mode, tc.workers, 1, 0
			s := New(cfg)
			defer s.Close()
			slot := slotFor(t, s, tc.bench)
			if layers := len(slot.net().Layers); (layers > 1) != (tc.bench == "BABI") {
				t.Fatalf("%s serves %d layers", tc.bench, layers)
			}
			corpus, _ := slot.eng.Inst.AccSeqs()
			for i, xs := range corpus[:6] {
				seq := xs[:min(len(xs), 3+2*i)]
				want, err := slot.net().ClassifyE(seq, slot.opts)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := s.Submit(context.Background(), Request{Bench: tc.bench, Seq: seq, Ref: -1})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Class != want {
					t.Fatalf("request %d: class %d, serial %d", i, resp.Class, want)
				}
			}
			if b := s.Stats().Benches[0]; (b.Wavefronts > 0) != tc.want || b.RunBatches != 6 {
				t.Fatalf("%d of %d forwards ran as a wavefront, want some: %v", b.Wavefronts, b.RunBatches, tc.want)
			}
		})
	}
}

// TestRaggedWindowBatches pins the ragged window: members of unequal
// lengths batch in one launch, each classified as its serial run would
// be, with a positive ragged GPU cost.
func TestRaggedWindowBatches(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxBatch = 3
	cfg.BatchWindow = time.Hour
	s := New(cfg)
	defer s.Close()

	slot := slotFor(t, s, "MR")
	corpus, _ := slot.eng.Inst.AccSeqs()
	seqs := [][]tensor.Vector{corpus[0][:3], corpus[1][:5], corpus[2]}
	want := make([]int, len(seqs))
	for i, xs := range seqs {
		class, err := slot.net().ClassifyE(xs, slot.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = class
	}

	var wg sync.WaitGroup
	got := make([]int, len(seqs))
	for i := range seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Bench: "MR", Seq: seqs[i], Ref: -1})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = resp.Class
			if resp.GPUMs <= 0 {
				t.Errorf("ragged batch GPU cost %.3f ms, want > 0", resp.GPUMs)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	equivtest.Classes(t, "ragged window", got, want)

	if b := s.Stats().Benches[0]; b.RunBatches != 1 {
		t.Fatalf("RunBatches %d, want 1", b.RunBatches)
	}
}

// TestMalformedMemberIsolated pins error isolation inside a window: a
// mis-shaped member gets its own error response while the rest of the
// batch is still served by the batched launch.
func TestMalformedMemberIsolated(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxBatch = 3
	cfg.BatchWindow = time.Hour
	s := New(cfg)
	defer s.Close()

	slot := slotFor(t, s, "MR")
	corpus, _ := slot.eng.Inst.AccSeqs()
	bad := []tensor.Vector{tensor.NewVector(len(corpus[0][0]) + 1)}

	var wg sync.WaitGroup
	var badErr error
	served := make([]int, 0, 2)
	var mu sync.Mutex
	submit := func(seq []tensor.Vector, wantErr bool) {
		defer wg.Done()
		resp, err := s.Submit(context.Background(), Request{Bench: "MR", Seq: seq, Ref: -1})
		mu.Lock()
		defer mu.Unlock()
		if wantErr {
			badErr = err
			return
		}
		if err != nil {
			t.Errorf("valid member failed: %v", err)
			return
		}
		served = append(served, resp.Class)
		if resp.BatchSize != 2 {
			t.Errorf("valid members saw batch size %d, want 2 after the bad member dropped", resp.BatchSize)
		}
	}
	wg.Add(3)
	go submit(corpus[0], false)
	go submit(corpus[1], false)
	go submit(bad, true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if badErr == nil {
		t.Fatal("malformed member served without error")
	}
	if len(served) != 2 {
		t.Fatalf("%d valid members served, want 2", len(served))
	}
	b := s.Stats().Benches[0]
	if b.RunBatches != 1 || b.Errors != 1 || b.Served != 2 {
		t.Fatalf("RunBatches=%d Errors=%d Served=%d, want 1/1/2", b.RunBatches, b.Errors, b.Served)
	}
}

// TestAllCancelledWindowDropped is the regression test for the
// accounting hole where a window whose members all cancelled returned
// early without touching the window counters: the dispatch must now be
// counted (and marked dropped) so MeanBatch reflects dispatch reality.
func TestAllCancelledWindowDropped(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 64
	s := New(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	const n = 2
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Submit(ctx, Request{Bench: "MR"})
		}()
	}
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
	cancel()
	wg.Wait()
	s.Close() // flushes the window; every member is already dead

	b := s.Stats().Benches[0]
	if b.Cancelled != n || b.Served != 0 {
		t.Fatalf("Cancelled=%d Served=%d, want %d/0", b.Cancelled, b.Served, n)
	}
	if b.Windows != 1 || b.DroppedWindows != 1 {
		t.Fatalf("Windows=%d DroppedWindows=%d, want 1/1 (dispatch must be counted)", b.Windows, b.DroppedWindows)
	}
	if b.RunBatches != 0 {
		t.Fatalf("RunBatches=%d, want 0 (nothing launched)", b.RunBatches)
	}
	if b.MeanBatch != 0 {
		t.Fatalf("MeanBatch=%.2f, want 0 over one empty dispatched window", b.MeanBatch)
	}
}

// TestAllMalformedWindowDropped: a window whose only member is
// mis-shaped serves nobody — it must count as a dispatched, dropped
// window rather than vanish from the batch statistics.
func TestAllMalformedWindowDropped(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchWindow = 0
	s := New(cfg)
	defer s.Close()

	slot := slotFor(t, s, "MR")
	corpus, _ := slot.eng.Inst.AccSeqs()
	bad := []tensor.Vector{tensor.NewVector(len(corpus[0][0]) + 1)}
	if _, err := s.Submit(context.Background(), Request{Bench: "MR", Seq: bad, Ref: -1}); err == nil {
		t.Fatal("malformed request served")
	}

	b := s.Stats().Benches[0]
	if b.Errors != 1 || b.Served != 0 {
		t.Fatalf("Errors=%d Served=%d, want 1/0", b.Errors, b.Served)
	}
	if b.Windows != 1 || b.DroppedWindows != 1 {
		t.Fatalf("Windows=%d DroppedWindows=%d, want 1/1", b.Windows, b.DroppedWindows)
	}
	if b.RunBatches != 0 {
		t.Fatalf("RunBatches=%d, want 0", b.RunBatches)
	}
}
