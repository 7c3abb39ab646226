package gpu

import "mobilstm/internal/tensor"

// Cache is a set-associative, LRU, line-granularity cache simulator. It is
// used to measure the actually-loaded DRAM bytes of the baseline per-cell
// Sgemv flow (§III-A: "the size of the actually loaded data is upto 100X
// larger than the original data size") and to validate the analytic miss
// model used by the fast timing path.
type Cache struct {
	lineBytes int64
	sets      int
	ways      int
	// tags[set][way] holds line tags; lru[set][way] holds recency
	// counters (higher = more recent).
	tags  [][]int64
	valid [][]bool
	lru   [][]uint64
	tick  uint64

	accesses int64
	misses   int64
}

// NewCache builds a cache of the given total size, line size and
// associativity. size must be a multiple of lineBytes*ways.
func NewCache(size, lineBytes int64, ways int) *Cache {
	if size <= 0 || lineBytes <= 0 || ways <= 0 {
		tensor.Panicf("gpu: invalid cache geometry")
	}
	sets := int(size / (lineBytes * int64(ways)))
	if sets < 1 {
		sets = 1
	}
	c := &Cache{lineBytes: lineBytes, sets: sets, ways: ways}
	c.tags = make([][]int64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for s := 0; s < sets; s++ {
		c.tags[s] = make([]int64, ways)
		c.valid[s] = make([]bool, ways)
		c.lru[s] = make([]uint64, ways)
	}
	return c
}

// NewL2 builds the L2 cache described by the config.
func NewL2(cfg Config) *Cache {
	return NewCache(cfg.L2Bytes, cfg.L2LineBytes, cfg.L2Ways)
}

// Access touches the byte address addr and reports whether it hit. A miss
// fills the line, evicting the LRU way of its set.
func (c *Cache) Access(addr int64) bool {
	line := addr / c.lineBytes
	set := int(line % int64(c.sets))
	c.accesses++
	c.tick++
	tags, valid, lru := c.tags[set], c.valid[set], c.lru[set]
	for w := 0; w < c.ways; w++ {
		if valid[w] && tags[w] == line {
			lru[w] = c.tick
			return true
		}
	}
	c.misses++
	victim := 0
	for w := 1; w < c.ways; w++ {
		if !valid[w] {
			victim = w
			break
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim] = line
	valid[victim] = true
	lru[victim] = c.tick
	return false
}

// AccessRange touches every line of the byte range [addr, addr+n) once and
// returns the number of misses. It models a coalesced streaming read of a
// contiguous buffer.
func (c *Cache) AccessRange(addr, n int64) int64 {
	if n <= 0 {
		return 0
	}
	var missed int64
	first := addr / c.lineBytes
	last := (addr + n - 1) / c.lineBytes
	for line := first; line <= last; line++ {
		if !c.Access(line * c.lineBytes) {
			missed++
		}
	}
	return missed
}

// Reset invalidates the cache and clears statistics.
func (c *Cache) Reset() {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			c.valid[s][w] = false
			c.lru[s][w] = 0
		}
	}
	c.tick = 0
	c.accesses = 0
	c.misses = 0
}

// Accesses returns the number of line accesses so far.
func (c *Cache) Accesses() int64 { return c.accesses }

// Misses returns the number of line misses so far.
func (c *Cache) Misses() int64 { return c.misses }

// MissBytes returns the DRAM traffic generated so far, in bytes.
func (c *Cache) MissBytes() int64 { return c.misses * c.lineBytes }
