// Fleet-scale sharded serving: N per-shard Servers, each a
// heterogeneous simulated device class from the Table I platforms,
// behind per-benchmark rendezvous (highest-random-weight) affinity
// routing. The fleet owns one shared EngineCache, so the first shard to
// build a benchmark's engine pays the cold JIT build and every peer
// adopts the warm artifact for an install-sized charge — and because
// the artifact is calibrated once on the fleet's reference GPU, every
// routed request classifies bitwise identically to the single-device
// serving path no matter which shard serves it. Shard device classes
// shape only the cost model: batch GPU time, cold-start charge, and
// utilization.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mobilstm/internal/experiments"
	"mobilstm/internal/gpu"
	"mobilstm/internal/report"
)

// FleetConfig shapes a Fleet.
type FleetConfig struct {
	// Base is the per-shard serving configuration: reference GPU for
	// engine calibration, profile, mode/set policy, batching window and
	// worker pool. Each shard runs one Server built from Base with its
	// own Device class and the fleet's shared engine cache.
	Base Config
	// Shards is the fleet size (minimum 1).
	Shards int
	// Classes assigns a simulated device class per shard; empty defaults
	// to experiments.FleetClasses(Shards), the round-robin Table I mix.
	// Fewer classes than shards cycle.
	Classes []gpu.Config
	// PreWarm makes Fleet.Warm propagate a warmed benchmark's engine
	// artifact to every peer shard, so only the home shard pays the cold
	// build and the rest install warm.
	PreWarm bool
	// HotQueue is the rebalance-on-hot-benchmark threshold: when a
	// benchmark has at least HotQueue requests in flight on a shard, new
	// requests spill to the next shard in its rendezvous order. <= 0
	// disables rebalancing (pure affinity).
	HotQueue int
}

// Fleet is the sharded serving tier. Create with NewFleet, stop with
// Close.
type Fleet struct {
	cfg    FleetConfig
	cache  *EngineCache
	shards []*Server

	routeMu    sync.Mutex
	inflight   map[string][]int64
	rebalances map[string]int64
}

// NewFleet starts one Server per shard, all sharing one engine cache.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = experiments.FleetClasses(cfg.Shards)
	}
	f := &Fleet{
		cfg:        cfg,
		cache:      NewEngineCache(),
		inflight:   make(map[string][]int64),
		rebalances: make(map[string]int64),
	}
	for i := 0; i < cfg.Shards; i++ {
		sc := cfg.Base
		sc.Device = cfg.Classes[i%len(cfg.Classes)]
		sc.Cache = f.cache
		f.shards = append(f.shards, New(sc))
	}
	return f
}

// Shards reports the fleet size.
func (f *Fleet) Shards() int { return len(f.shards) }

// rendezvous is the highest-random-weight hash of (bench, shard):
// FNV-1a over the benchmark name and shard index, finished with a
// splitmix64-style avalanche so adjacent shard indices decorrelate.
func rendezvous(bench string, shard int) uint64 {
	h := uint64(1469598103934665603)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < len(bench); i++ {
		mix(bench[i])
	}
	mix(byte(shard))
	mix(byte(shard >> 8))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// order returns a benchmark's shard preference order: shards sorted by
// descending rendezvous weight. The first entry is the benchmark's home
// shard; the rebalance rule walks the rest in order. Rendezvous hashing
// keeps the order stable per benchmark and spreads homes evenly across
// shards without any coordination state.
func (f *Fleet) order(bench string) []int {
	type sw struct {
		shard int
		w     uint64
	}
	ws := make([]sw, len(f.shards))
	for i := range f.shards {
		ws[i] = sw{shard: i, w: rendezvous(bench, i)}
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].w != ws[b].w {
			return ws[a].w > ws[b].w
		}
		return ws[a].shard < ws[b].shard
	})
	out := make([]int, len(ws))
	for i, e := range ws {
		out[i] = e.shard
	}
	return out
}

// pick chooses the serving shard for one request and registers it in
// flight. The home shard is the benchmark's rendezvous winner; the
// rebalance-on-hot-benchmark rule spills to the next shard in
// rendezvous order once the benchmark's in-flight depth on a shard
// reaches HotQueue, so one hot benchmark stops monopolizing its home
// shard's queue while cold benchmarks keep perfect affinity. When every
// shard is hot the least-loaded one takes the request.
func (f *Fleet) pick(bench string) (shard int, rebalanced bool) {
	order := f.order(bench)
	f.routeMu.Lock()
	defer f.routeMu.Unlock()
	inf := f.inflight[bench]
	if inf == nil {
		inf = make([]int64, len(f.shards))
		f.inflight[bench] = inf
	}
	shard = order[0]
	if f.cfg.HotQueue > 0 && inf[shard] >= int64(f.cfg.HotQueue) {
		for _, alt := range order[1:] {
			if inf[alt] < int64(f.cfg.HotQueue) {
				shard, rebalanced = alt, true
				break
			}
		}
		if !rebalanced {
			best := order[0]
			for _, alt := range order[1:] {
				if inf[alt] < inf[best] {
					best = alt
				}
			}
			if best != order[0] {
				shard, rebalanced = best, true
			}
		}
		if rebalanced {
			f.rebalances[bench]++
		}
	}
	inf[shard]++
	return shard, rebalanced
}

// done releases a request's in-flight slot.
func (f *Fleet) done(bench string, shard int) {
	f.routeMu.Lock()
	defer f.routeMu.Unlock()
	if inf := f.inflight[bench]; inf != nil {
		inf[shard]--
	}
}

// Submit routes one request to its shard and serves it there. The
// response's Class is bitwise identical to the single-device serving
// path regardless of the shard chosen: every shard serves the shared
// reference-calibrated artifact, and the shard's device class prices
// only WaitMs/GPUMs/ColdMs.
func (f *Fleet) Submit(ctx context.Context, req Request) (*Response, error) {
	if _, err := experiments.Lookup(req.Bench); err != nil {
		return nil, err
	}
	shard, _ := f.pick(req.Bench)
	defer f.done(req.Bench, shard)
	resp, err := f.shards[shard].Submit(ctx, req)
	if resp != nil {
		resp.Shard = shard
	}
	return resp, err
}

// Warm builds bench's engine on its home shard — the one cold build the
// fleet pays — and, when PreWarm is on, propagates the warm artifact to
// every peer: each peer's build hits the shared cache and installs
// instead of rebuilding.
func (f *Fleet) Warm(bench string) error {
	order := f.order(bench)
	if err := f.shards[order[0]].Warm(bench); err != nil {
		return err
	}
	if !f.cfg.PreWarm {
		return nil
	}
	for _, i := range order[1:] {
		if err := f.shards[i].Warm(bench); err != nil {
			return err
		}
	}
	return nil
}

// Close drains and stops every shard. Safe to call more than once.
func (f *Fleet) Close() {
	for _, s := range f.shards {
		s.Close()
	}
}

// ShardSnapshot is one shard's view in a FleetSnapshot.
type ShardSnapshot struct {
	Shard int
	Snapshot
}

// BenchCount pairs a benchmark with a counter (name-ordered in
// snapshots).
type BenchCount struct {
	Bench string
	Count int64
}

// FleetSnapshot is a point-in-time view of the fleet's counters.
type FleetSnapshot struct {
	Shards []ShardSnapshot
	Cache  CacheStats
	// Rebalances counts requests the hot-benchmark rule spilled off
	// their home shard, per benchmark.
	Rebalances []BenchCount
	// ColdBuilds / Installs aggregate engine materializations fleet-wide:
	// with pre-warming, ColdBuilds is one per benchmark and every peer
	// shard contributes an install.
	ColdBuilds int64
	Installs   int64
}

// Stats snapshots every shard plus the shared cache and routing
// counters. Safe to call concurrently with serving.
func (f *Fleet) Stats() FleetSnapshot {
	snap := FleetSnapshot{Cache: f.cache.Stats()}
	for i, s := range f.shards {
		ss := ShardSnapshot{Shard: i, Snapshot: s.Stats()}
		snap.ColdBuilds += ss.ColdBuilds
		snap.Installs += ss.Installs
		snap.Shards = append(snap.Shards, ss)
	}
	f.routeMu.Lock()
	names := make([]string, 0, len(f.rebalances))
	for name := range f.rebalances {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap.Rebalances = append(snap.Rebalances, BenchCount{Bench: name, Count: f.rebalances[name]})
	}
	f.routeMu.Unlock()
	return snap
}

// Report renders the fleet snapshot as a per-shard table: device class,
// volume, utilization, engine materializations, and the cold vs warm
// p99 split.
func (snap FleetSnapshot) Report() *report.Table {
	var rebal int64
	for _, r := range snap.Rebalances {
		rebal += r.Count
	}
	t := report.NewTable(
		fmt.Sprintf("Fleet stats (%d shards, cache %d artifacts %d hits %d misses, %d rebalanced)",
			len(snap.Shards), snap.Cache.Artifacts, snap.Cache.Hits, snap.Cache.Misses, rebal),
		"Shard", "class", "served", "rej", "util", "cold/inst",
		"p99 cold", "p99 warm", "p95 ms")
	for _, ss := range snap.Shards {
		var served, rejected, coldServed int64
		for _, b := range ss.Benches {
			served += b.Served
			rejected += b.Rejected
			coldServed += b.ColdServed
		}
		t.AddRowf(fmt.Sprintf("%d", ss.Shard),
			ss.Device,
			fmt.Sprintf("%d", served),
			fmt.Sprintf("%d", rejected),
			fmt.Sprintf("%.1f%%", ss.Utilization*100),
			fmt.Sprintf("%d/%d", ss.ColdBuilds, ss.Installs),
			quantileCell(ss.ColdP99Ms, coldServed > 0),
			quantileCell(ss.WarmP99Ms, served > coldServed),
			quantileCell(ss.P95Ms, served > 0))
	}
	return t
}
