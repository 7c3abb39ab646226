package tensor

import (
	"runtime"
	"sync"
)

// The row-sharding fork-join behind PackedGemm and PackedGemmRows. The
// sharding axis is always a destination row (a dot-product chain that
// no other row touches), so a sharded kernel's output is bitwise
// identical to its serial counterpart at any GOMAXPROCS — the shards
// only partition the row space, never an accumulation. Small shapes
// stay serial: the gate below keeps fork-join overhead (goroutine spawn
// + Wait, on the order of microseconds) away from kernels that finish
// faster than that.

const (
	// parallelMinWork is the size gate: a kernel whose total
	// multiply-accumulate count (rows × cols, × inputs for PackedGemm)
	// falls below this runs serially. 1<<16 MACs is ~25 µs of pure-Go
	// GEMV on a mobile-class core — the break-even region for a
	// handful of goroutine spawns.
	parallelMinWork = 1 << 16
	// parallelMinRows is the smallest shard height: thinner shards
	// spend more time in the scheduler than in the kernel.
	parallelMinRows = 8
	// parallelMaxShards caps the fan-out so a huge kernel under a
	// concurrent caller (the serve worker pool) cannot flood the
	// scheduler with goroutines.
	parallelMaxShards = 16
)

// shardCount returns how many row shards a kernel over rows×(work/rows)
// should fork, gated on size and GOMAXPROCS. One means "stay serial".
func shardCount(rows, work int) int {
	procs := runtime.GOMAXPROCS(0)
	if procs <= 1 || work < parallelMinWork || rows < 2*parallelMinRows {
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

// forkJoin runs body over [0, rows) split into contiguous shards: the
// launching goroutine registers every extra shard in a WaitGroup before
// spawning it, computes the first shard inline, and waits for the rest
// — every parallel kernel is a complete unit of work by the time it
// returns (the locklint invariant). With one shard it degenerates to a
// plain call.
func forkJoin(rows, work int, body func(lo, hi int)) {
	shards := shardCount(rows, work)
	if shards <= 1 {
		body(0, rows)
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
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	body(0, chunk)
	wg.Wait()
}
