package serve

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilstm/internal/accuracy"
	"mobilstm/internal/core"
	"mobilstm/internal/equivtest"
	"mobilstm/internal/gpu"
	"mobilstm/internal/lstm"
	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
)

// The goroutine-lifetime contract: no goroutine a Server, a Fleet, a
// parallel kernel or the layer wavefront starts outlives its owner —
// Close for the serving tiers, the call for PackedGemm's fork-join, the
// ParallelFor pools behind model.Build, accuracy.Score and the
// threshold sweep, and RunWavefrontE's per-layer helpers, whether the
// call succeeds or a helper fails. Goroutines are read from
// runtime.Stack; a goroutine belongs to the module when one of its
// frames is a function of it.

const modulePrefix = "mobilstm/internal/"

// moduleGoroutines returns the stacks, by goroutine id, of every
// goroutine but the caller's that has a frame in the module.
func moduleGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	// The caller's own stack comes first.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "\n"+modulePrefix) {
			out[strings.Fields(g)[1]] = g
		}
	}
	return out
}

// noneOutlive fails the test if a module goroutine that was not running
// when before was taken is still running. It polls under a bounded
// deadline: a goroutine counted done by its owner still needs a moment
// to return from its last deferred call.
func noneOutlive(t *testing.T, owner string, before map[string]string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var leaked []string
		for id, stack := range moduleGoroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) outlived %s:\n\n%s", len(leaked), owner, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// traffic drives submit from clients goroutines, every third request on
// a context cancelled a moment after it is sent, and closes the owner
// mid-traffic. It returns once every client has its answer, and fails
// the test unless some requests were served before the owner closed.
func traffic(t *testing.T, submit func(context.Context, Request) (*Response, error), closeOwner func()) {
	t.Helper()
	const clients = 6
	var served atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if (i+j)%3 == 0 {
					time.AfterFunc(200*time.Microsecond, cancel)
				}
				_, err := submit(ctx, Request{Bench: []string{"MR", "BABI"}[(i+j)%2]})
				cancel()
				if err == nil {
					served.Add(1)
				}
				if !allowedServeErr(err) {
					t.Errorf("submit: %v", err)
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	closeOwner()
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no request was served: the traffic never reached the workers")
	}
}

func TestNoGoroutineOutlivesItsOwner(t *testing.T) {
	t.Run("Server", func(t *testing.T) {
		before := moduleGoroutines()
		cfg := tinyConfig()
		cfg.BatchWindow = time.Millisecond
		s := New(cfg)
		traffic(t, s.Submit, s.Close)
		noneOutlive(t, "Server.Close", before)
	})

	t.Run("Fleet", func(t *testing.T) {
		before := moduleGoroutines()
		cfg := tinyFleetConfig()
		cfg.Shards = 2
		cfg.Base.BatchWindow = time.Millisecond
		f := NewFleet(cfg)
		traffic(t, f.Submit, f.Close)
		noneOutlive(t, "Fleet.Close", before)
	})

	// A Close that returns while a worker is still inside a window: the
	// engine build of the window's request is held until Close has had
	// ample time to return, which it may only do after the build.
	t.Run("ServerCloseDuringBuild", func(t *testing.T) {
		before := moduleGoroutines()
		entered, release := make(chan struct{}), make(chan struct{})
		var releaseOnce sync.Once
		open := func() { releaseOnce.Do(func() { close(release) }) }
		defer open()
		cfg := tinyConfig()
		cfg.BatchWindow = 0
		cfg.buildHook = func(string) error {
			close(entered)
			<-release
			return nil
		}
		s := New(cfg)
		served := make(chan error, 1)
		go func() {
			_, err := s.Submit(context.Background(), Request{Bench: "MR"})
			served <- err
		}()
		<-entered
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		select {
		case <-closed:
			// Close returned with the build still held: whatever is
			// left running now has outlived it.
		case <-time.After(50 * time.Millisecond):
			open()
			<-closed
		}
		noneOutlive(t, "Server.Close during an engine build", before)
		open()
		if err := <-served; err != nil {
			t.Fatalf("request accepted before Close: %v", err)
		}
	})

	// One client sending caller-supplied sequences to two workers with
	// windows of one, in Intra, to three-layer BABI: the served forwards
	// run as wavefronts, with helper goroutines.
	t.Run("SingleStreamServer", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		before := moduleGoroutines()
		cfg := tinyConfig()
		cfg.Mode, cfg.Workers, cfg.MaxBatch, cfg.BatchWindow = sched.Intra, 2, 1, 0
		s := New(cfg)
		if err := s.Warm("BABI"); err != nil {
			t.Fatal(err)
		}
		net := s.engine("BABI").net()
		if len(net.Layers) < 2 {
			t.Fatalf("BABI serves %d layer, nothing to pipeline", len(net.Layers))
		}
		seqs := equivtest.Seqs(rng.New(6), net.Input(), 13, 8)
		for _, seq := range seqs {
			if _, err := s.Submit(context.Background(), Request{Bench: "BABI", Seq: seq, Ref: -1}); err != nil {
				t.Fatal(err)
			}
		}
		if b := s.Stats().Benches[0]; b.Wavefronts == 0 {
			t.Fatalf("none of %d forwards ran as a wavefront", b.RunBatches)
		}
		s.Close()
		noneOutlive(t, "Server.Close after wavefront windows", before)
	})

	t.Run("Wavefront", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
		before := moduleGoroutines()
		n := lstm.NewNetwork(12, 16, 3, 4)
		n.InitRandom(rng.New(7), nil, 0.5)
		xs := equivtest.Seqs(rng.New(8), 12, 21, 1)[0]
		if _, pipelined, err := n.RunWavefrontE(xs, lstm.Baseline()); err != nil || !pipelined {
			t.Fatalf("pipelined %v, error %v", pipelined, err)
		}
		noneOutlive(t, "RunWavefrontE", before)
		n.Layers[2].Wo = tensor.NewMatrix(16, 17)
		n.Layers[2].Invalidate()
		if _, _, err := n.RunWavefrontE(xs, lstm.Baseline()); err == nil {
			t.Fatal("a mis-shaped layer 2 ran")
		}
		noneOutlive(t, "a failed RunWavefrontE", before)
	})

	t.Run("PackedGemmFork", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
		before := moduleGoroutines()
		r := rng.New(5)
		m := tensor.NewMatrix(1024, 640) // 2.5 MiB of weights: over the fork gate
		for i := range m.Data {
			m.Data[i] = r.NormF32(0, 1)
		}
		xs := make([]tensor.Vector, 6)
		for i := range xs {
			xs[i] = tensor.NewVector(m.Cols)
			for j := range xs[i] {
				xs[i][j] = r.NormF32(0, 1)
			}
		}
		tensor.PackedGemm(tensor.NewMatrix(len(xs), m.Rows), m, xs)
		noneOutlive(t, "PackedGemm", before)
	})

	t.Run("BuildAndScore", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
		before := moduleGoroutines()
		b, _ := model.ByName("MR")
		in := model.Build(b, tinyConfig().Profile)
		noneOutlive(t, "model.Build", before)
		seqs, refs := in.AccSeqs()
		if got := accuracy.Score(in.Net, seqs, refs, lstm.Baseline()); got != 1 {
			t.Fatalf("baseline scores %v against its own labels, want 1", got)
		}
		noneOutlive(t, "accuracy.Score", before)
	})

	t.Run("Sweep", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
		before := moduleGoroutines()
		b, _ := model.ByName("MR")
		eng := core.NewEngine(b, tinyConfig().Profile, gpu.TegraX1())
		if _, err := eng.SweepE(sched.Intra); err != nil {
			t.Fatal(err)
		}
		noneOutlive(t, "the threshold sweep", before)
		l := eng.Inst.Net.Layers[0]
		l.Wo = tensor.NewMatrix(l.Hidden, l.Input+1)
		l.Invalidate()
		if _, err := eng.SweepE(sched.Intra); err == nil {
			t.Fatal("a mis-shaped layer swept")
		}
		noneOutlive(t, "a failed threshold sweep", before)
	})
}
