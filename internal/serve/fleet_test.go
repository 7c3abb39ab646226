package serve

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/experiments"
)

// tinyFleetConfig keeps fleet tests fast: three heterogeneous shards
// over the tiny serving profile.
func tinyFleetConfig() FleetConfig {
	return FleetConfig{Base: tinyConfig(), Shards: 3, PreWarm: true, HotQueue: 8}
}

// TestFleetClassEquivalence pins the tentpole's correctness contract:
// every shard — and the routed fleet path — classifies bitwise
// identically to a standalone single-device server, because all shards
// serve the shared reference-calibrated artifact and heterogeneity
// prices only the cost model.
func TestFleetClassEquivalence(t *testing.T) {
	single := New(tinyConfig())
	defer single.Close()
	f := NewFleet(tinyFleetConfig())
	defer f.Close()

	const n = 4
	for _, bench := range []string{"MR", "BABI"} {
		if err := f.Warm(bench); err != nil {
			t.Fatal(err)
		}
		slot := slotFor(t, single, bench)
		seqs, refs := slot.eng.Inst.AccSeqs()

		want := make([]int, n)
		for i := 0; i < n; i++ {
			resp, err := single.Submit(context.Background(), Request{Bench: bench, Seq: seqs[i], Ref: refs[i]})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = resp.Class
		}

		// Every shard must agree, not just the one affinity picked.
		for shard, srv := range f.shards {
			got := make([]int, n)
			for i := 0; i < n; i++ {
				resp, err := srv.Submit(context.Background(), Request{Bench: bench, Seq: seqs[i], Ref: refs[i]})
				if err != nil {
					t.Fatal(err)
				}
				got[i] = resp.Class
			}
			equivtest.Classes(t, fmt.Sprintf("%s shard %d", bench, shard), got, want)
		}

		routed := make([]int, n)
		for i := 0; i < n; i++ {
			resp, err := f.Submit(context.Background(), Request{Bench: bench, Seq: seqs[i], Ref: refs[i]})
			if err != nil {
				t.Fatal(err)
			}
			routed[i] = resp.Class
		}
		equivtest.Classes(t, bench+" routed", routed, want)
	}
}

// TestFleetPreWarmSingleColdBuild pins the cache-propagation contract:
// warming a benchmark costs the fleet exactly one cold build — the home
// shard's — and every peer adopts the artifact as a warm install, so no
// request anywhere pays the cold charge afterwards.
func TestFleetPreWarmSingleColdBuild(t *testing.T) {
	f := NewFleet(tinyFleetConfig())
	defer f.Close()

	if err := f.Warm("MR"); err != nil {
		t.Fatal(err)
	}
	snap := f.Stats()
	if snap.ColdBuilds != 1 {
		t.Fatalf("fleet cold builds %d, want exactly 1", snap.ColdBuilds)
	}
	peers := int64(f.Shards() - 1)
	if snap.Installs != peers {
		t.Fatalf("fleet installs %d, want %d (every peer adopts)", snap.Installs, peers)
	}
	if snap.Cache.Artifacts != 1 || snap.Cache.Hits != peers || snap.Cache.Misses != 1 {
		t.Fatalf("cache %+v, want 1 artifact, %d hits, 1 miss", snap.Cache, peers)
	}

	for shard, srv := range f.shards {
		resp, err := srv.Submit(context.Background(), Request{Bench: "MR"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cold || resp.ColdMs != 0 {
			t.Fatalf("shard %d served a charged response after pre-warm: %+v", shard, resp)
		}
	}
}

// TestFleetColdTrafficChargesOnce: with no pre-warming at all, traffic
// itself triggers the build and the first served window absorbs a cold
// charge — but the shared cache still keeps the fleet at one cold build
// per benchmark, with later shards installing warm.
func TestFleetColdTrafficChargesOnce(t *testing.T) {
	cfg := tinyFleetConfig()
	cfg.PreWarm = false
	cfg.Base.BatchWindow = 0
	f := NewFleet(cfg)
	defer f.Close()

	first, err := f.Submit(context.Background(), Request{Bench: "MR"})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Cold || first.ColdMs <= 0 {
		t.Fatalf("first fleet response not cold-charged: %+v", first)
	}

	// Force a second shard to serve the same benchmark: it must hit the
	// cache and pay only the (cheaper) install charge.
	other := (first.Shard + 1) % f.Shards()
	peer, err := f.shards[other].Submit(context.Background(), Request{Bench: "MR"})
	if err != nil {
		t.Fatal(err)
	}
	if peer.Cold {
		t.Fatalf("peer shard paid a second cold build: %+v", peer)
	}
	if peer.ColdMs <= 0 || peer.ColdMs >= first.ColdMs {
		t.Fatalf("install charge %.2f ms, want in (0, cold %.2f)", peer.ColdMs, first.ColdMs)
	}

	snap := f.Stats()
	if snap.ColdBuilds != 1 || snap.Installs != 1 {
		t.Fatalf("ColdBuilds=%d Installs=%d, want 1/1", snap.ColdBuilds, snap.Installs)
	}
}

// TestFleetAffinityAndRebalance pins the routing layer: rendezvous
// order is deterministic per benchmark, pure affinity keeps every
// request home, and the hot-benchmark rule spills to the next shard in
// rendezvous order once the home queue depth hits HotQueue.
func TestFleetAffinityAndRebalance(t *testing.T) {
	cfg := tinyFleetConfig()
	cfg.HotQueue = 2
	f := NewFleet(cfg)
	defer f.Close()

	order := f.order("MR")
	if len(order) != f.Shards() {
		t.Fatalf("order covers %d shards, want %d", len(order), f.Shards())
	}
	for i := 0; i < 3; i++ {
		again := f.order("MR")
		for j := range order {
			if again[j] != order[j] {
				t.Fatalf("rendezvous order unstable: %v vs %v", again, order)
			}
		}
	}

	// Below the threshold: perfect affinity.
	s1, r1 := f.pick("MR")
	s2, r2 := f.pick("MR")
	if s1 != order[0] || s2 != order[0] || r1 || r2 {
		t.Fatalf("affinity picks %d,%d (rebalanced %v,%v), want home %d", s1, s2, r1, r2, order[0])
	}
	// At the threshold: spill to the next shard in rendezvous order.
	s3, r3 := f.pick("MR")
	if !r3 || s3 != order[1] {
		t.Fatalf("hot pick %d (rebalanced %v), want spill to %d", s3, r3, order[1])
	}
	f.done("MR", s1)
	f.done("MR", s2)
	f.done("MR", s3)

	snap := f.Stats()
	if len(snap.Rebalances) != 1 || snap.Rebalances[0].Bench != "MR" || snap.Rebalances[0].Count != 1 {
		t.Fatalf("rebalance counters %+v, want MR:1", snap.Rebalances)
	}
}

// TestFleetReport smoke-checks the fleet table: every shard row with
// its device class, plus the cache line in the title.
func TestFleetReport(t *testing.T) {
	f := NewFleet(tinyFleetConfig())
	defer f.Close()
	if err := f.Warm("MR"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(context.Background(), Request{Bench: "MR"}); err != nil {
		t.Fatal(err)
	}
	out := f.Stats().Report().String()
	for _, want := range []string{"3 shards", "1 artifacts", "Tegra"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet report missing %q:\n%s", want, out)
		}
	}
}

// TestFleetRebalancesSortedByName pins the order of
// FleetSnapshot.Rebalances over several spilled benchmarks. Routing
// alone spills them (two picks, none released), so no engine is built.
func TestFleetRebalancesSortedByName(t *testing.T) {
	cfg := tinyFleetConfig()
	cfg.HotQueue = 1
	f := NewFleet(cfg)
	defer f.Close()
	names := experiments.BenchmarkNames()
	for _, b := range names {
		f.pick(b)
		if _, spilled := f.pick(b); !spilled {
			t.Fatalf("%s: a second in-flight request stayed on its hot home shard", b)
		}
	}
	for range 5 {
		var got []string
		for _, r := range f.Stats().Rebalances {
			got = append(got, r.Bench)
		}
		if len(got) != len(names) || !slices.IsSorted(got) {
			t.Fatalf("Rebalances in order %v, want all %d benchmarks sorted by name", got, len(names))
		}
	}
}
