package tensor

import (
	"runtime"
	"sync"
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

// ParallelFor runs f(0..n-1) across GOMAXPROCS workers that pull
// indices from a shared channel, and returns once every call has
// returned. It is the work pool of the offline per-sequence loops
// (model calibration, accuracy scoring): callers write results by
// index, so the output does not depend on which worker ran which i.
func ParallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
