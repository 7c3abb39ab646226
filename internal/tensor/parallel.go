package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The row-sharding fork-join behind PackedGemm and PackedGemmRows. The
// sharding axis is always a destination row (a dot-product chain that
// no other row touches), so a sharded kernel's output is bitwise
// identical to its serial counterpart at any GOMAXPROCS — the shards
// only partition the row space, never an accumulation. Only kernels
// whose weights overflow a core's L2 fork; everything else runs on the
// calling goroutine.

const (
	// parallelMinBytes is the gate: a kernel forks only when its weight
	// matrix is larger than one core's L2 (2 MiB on the two-vCPU
	// benchmark box), i.e. when it is memory-bound. Over L2-resident
	// weights one call is a 7–10 µs step, and a fork pays a goroutine
	// hand-off and a join on every call — synchronization that eats
	// the second shard's share (576×192 at B=1 with the four-row body:
	// ~7.4 µs serial, ~8.2 µs forked at the median, p90 ~10 vs ~15 µs).
	// The second vCPU itself is real capacity: two independent Runs on
	// that box scale 1.7–2.1×. It pays for work handed over in larger
	// pieces, which is why the layer wavefront (internal/recurrent)
	// hands the layer above four cells at a time, not a step. A
	// memory-bound kernel does gain from a fork: over 2600×650, B=1
	// ~220–250 → ~180 µs and 16 inputs ~3.3–4.2 → ~1.9–2.0 ms
	// (medians).
	parallelMinBytes = 2 << 20
	// parallelMinRows is the smallest shard height: thinner shards
	// spend more time in the scheduler than in the kernel.
	parallelMinRows = 8
	// parallelMaxShards caps the fan-out so a huge kernel under a
	// concurrent caller (the serve worker pool) cannot flood the
	// scheduler with goroutines.
	parallelMaxShards = 16
)

// shardCount returns how many row shards a kernel of rows destination
// rows over weightBytes of weights should fork, gated on the weights'
// size and GOMAXPROCS. One means "stay serial".
func shardCount(rows int, weightBytes int64) int {
	procs := runtime.GOMAXPROCS(0)
	if procs <= 1 || weightBytes <= parallelMinBytes || rows < 2*parallelMinRows {
		return 1
	}
	shards := procs
	if shards > rows/parallelMinRows {
		shards = rows / parallelMinRows
	}
	if shards > parallelMaxShards {
		shards = parallelMaxShards
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// rowRange is a kernel's row-range body: run computes destination rows
// [lo, hi). Kernels pass it as a small struct value, not a closure, so
// that the serial path allocates nothing.
type rowRange interface{ run(lo, hi int) }

// forkJoin runs body over [0, rows) split into contiguous shards: the
// launching goroutine registers every extra shard in a WaitGroup before
// spawning it, computes the first shard inline, and waits for the rest
// — every parallel kernel is a complete unit of work by the time it
// returns, and no shard goroutine outlives the call. With one shard it
// degenerates to a plain call and allocates nothing; a fork allocates
// the WaitGroup and one goroutine closure (holding its copy of body)
// per extra shard — at most parallelMaxShards allocations.
func forkJoin[B rowRange](rows int, weightBytes int64, body B) {
	shards := shardCount(rows, weightBytes)
	if shards <= 1 {
		body.run(0, rows)
		return
	}
	chunk := (rows + shards - 1) / shards
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body.run(lo, hi)
		}()
	}
	body.run(0, chunk)
	wg.Wait()
}

// ParallelFor runs f(0..n-1) across GOMAXPROCS workers, the calling
// goroutine one of them, that take indices in order from a shared
// counter, and returns once every call has returned. It is the work
// pool of the offline loops (the threshold sweep, and through
// ParallelBatches the corpus margins and accuracy scoring): callers
// write results by index, so the output does not depend on which worker
// ran which i.
//
// A call that panics with a Panicf violation stops every worker from
// taking a further index; once all of them have stopped, the violation
// is re-raised on the calling goroutine (the lowest worker's, if
// several failed), where the caller's Guard sees it. So a Panicf inside
// f is the caller's error at any GOMAXPROCS, and no worker outlives the
// call. Any other panic is a bug and crashes the process from the
// worker that raised it, its faulting frame in the trace (Recovered).
func ParallelFor(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var stop atomic.Bool
	panics := make([]any, workers)
	work := func(w int) {
		panics[w] = Recovered(func() {
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		})
		if panics[w] != nil {
			stop.Store(true)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	for _, p := range panics {
		Repanic(p)
	}
}

// blockInputs is the input group of the block span body (dot4x4AVX512,
// blockRows): the inputs one block call dots against the same four
// weight rows. A batch forward of this many members streams every
// weight row once per step for all of them. It is tied to the kernel,
// not tuned: on a two-vCPU AVX-512 Xeon, 64 sequences of the
// quick-profile PTB shape over two workers took 77.9 ms as lone
// forwards, 68.8 ms in batches of two, 59.4 in batches of four and 59.3
// in batches of eight (the fastest of eight rounds).
const blockInputs = 4

// ParallelBatches is ParallelFor over batches: it cuts [0, n) into
// consecutive batches of blockInputs indices (the last may be shorter)
// and runs f(lo, hi) once per batch, across GOMAXPROCS workers. It is
// the pool of the offline passes that classify independent sequences
// through the batch forward, one block group per call.
func ParallelBatches(n int, f func(lo, hi int)) {
	ParallelFor((n+blockInputs-1)/blockInputs, func(b int) {
		lo := b * blockInputs
		f(lo, min(lo+blockInputs, n))
	})
}
