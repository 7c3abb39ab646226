// Command mobilstm-serve runs the concurrent serving loop against a
// synthetic open-loop workload: requests for several benchmarks arrive
// at exponential inter-arrival times (one independent Poisson stream
// per benchmark — the interactive-IPA regime of §II-C, where requests
// do not wait for each other), flow through the batching window and
// the worker pool, and the run ends with a per-benchmark table of
// throughput, p50/p95 latency, batch occupancy, and accuracy at the
// serving operating point.
//
// With -shards N the workload runs against the fleet tier instead: N
// heterogeneous simulated device classes behind rendezvous affinity
// routing, sharing one warm-engine cache. -fleetcheck runs the
// cold-vs-warm validation protocol: a cold fleet (no pre-warming, the
// first windows absorb measured engine-build charges) followed by a
// pre-warmed fleet on identical traffic, asserting that warm p99 stays
// below cold p99 and that the cache holds the fleet to one cold build
// per benchmark.
//
// Accuracy-bearing evaluation defaults to the quick profile; set
// MOBILSTM_FULL=1 for the exact Table II shapes.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"mobilstm/internal/rng"
	"mobilstm/internal/serve"
)

func main() {
	benches := flag.String("benches", "MR,BABI", "comma-separated benchmarks to serve")
	requests := flag.Int("requests", 40, "open-loop requests per benchmark")
	interMs := flag.Float64("interarrival", 3, "mean inter-arrival time per stream, ms")
	workers := flag.Int("workers", 0, "worker-pool size (default: serve.DefaultConfig)")
	window := flag.Duration("window", -1, "batching window (default: serve.DefaultConfig)")
	maxBatch := flag.Int("maxbatch", 0, "batch-size cap (default: serve.DefaultConfig)")
	set := flag.Int("set", serve.AutoSet, "threshold set (default: per-benchmark AO point)")
	seed := flag.Uint64("seed", 1, "arrival-process seed")
	shards := flag.Int("shards", 0, "fleet size; 0 serves on a single device")
	prewarm := flag.Bool("prewarm", true, "fleet mode: propagate warmed engines to peer shards")
	hotQueue := flag.Int("hotqueue", 8, "fleet mode: rebalance threshold on per-benchmark queue depth")
	fleetCheck := flag.Bool("fleetcheck", false, "fleet mode: run the cold-then-prewarmed validation protocol")
	flag.Parse()

	cfg := serve.DefaultConfig()
	cfg.Set = *set
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *window >= 0 {
		cfg.BatchWindow = *window
	}
	if *maxBatch > 0 {
		cfg.MaxBatch = *maxBatch
	}
	if os.Getenv("MOBILSTM_FULL") == "" {
		// Quick profile: capped shapes, full pipeline.
		cfg.Profile.Name = "quick"
		cfg.Profile.HiddenCap = 128
		cfg.Profile.LengthCap = 32
		cfg.Profile.AccSamples = 30
		cfg.Profile.PredictorSamples = 5
		cfg.Profile.StatSamples = 2
	}

	names := strings.Split(*benches, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	if *shards > 0 {
		fcfg := serve.FleetConfig{
			Base:     cfg,
			Shards:   *shards,
			PreWarm:  *prewarm,
			HotQueue: *hotQueue,
		}
		if *fleetCheck {
			os.Exit(fleetCheckRun(fcfg, names, *requests, *interMs, *seed))
		}
		os.Exit(fleetRun(fcfg, names, *requests, *interMs, *seed))
	}

	s := serve.New(cfg)
	for _, bench := range names {
		fmt.Printf("warming %s (engine build + threshold calibration)...\n", bench)
		if err := s.Warm(bench); err != nil {
			fmt.Fprintf(os.Stderr, "warm %s: %v\n", bench, err)
			os.Exit(1)
		}
	}
	start := time.Now()
	fmt.Printf("serving %s: %d requests/stream, %.1f ms mean inter-arrival, "+
		"%d workers, window %v, max batch %d\n\n",
		strings.Join(names, "+"), *requests, *interMs, cfg.Workers, cfg.BatchWindow, cfg.MaxBatch)

	errCount := runStreams(names, *requests, *interMs, *seed, s.Submit)
	s.Close()

	fmt.Println(s.Stats().Report())
	fmt.Printf("total wall time %.1fs, %d submit errors\n",
		time.Since(start).Seconds(), errCount)
	if errCount > 0 {
		os.Exit(1)
	}
}

// runStreams drives one open-loop Poisson stream per benchmark against
// submit: the next request's arrival never waits for the previous
// response (each Submit blocks in its own goroutine, collected by the
// WaitGroup). Returns the submit-error count, printing the first error.
func runStreams(names []string, requests int, interMs float64, seed uint64,
	submit func(context.Context, serve.Request) (*serve.Response, error)) int {
	var wg sync.WaitGroup
	var errMu sync.Mutex
	errCount := 0
	for si, bench := range names {
		wg.Add(1)
		go func(bench string, r *rng.RNG) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := submit(context.Background(), serve.Request{Bench: bench}); err != nil {
						errMu.Lock()
						if errCount == 0 {
							fmt.Fprintf(os.Stderr, "%s: %v\n", bench, err)
						}
						errCount++
						errMu.Unlock()
					}
				}()
				// Exponential inter-arrival via inverse transform.
				wait := -interMs * logUnit(r)
				time.Sleep(time.Duration(wait * float64(time.Millisecond)))
			}
		}(bench, rng.New(seed+uint64(si)*0x9e37))
	}
	wg.Wait()
	return errCount
}

// fleetRun is the plain fleet serving mode: warm (optionally
// propagating), serve the open-loop workload through the router, print
// the per-shard fleet table plus each shard's benchmark table.
func fleetRun(fcfg serve.FleetConfig, names []string, requests int, interMs float64, seed uint64) int {
	f := serve.NewFleet(fcfg)
	for _, bench := range names {
		fmt.Printf("warming %s across the fleet (prewarm=%v)...\n", bench, fcfg.PreWarm)
		if err := f.Warm(bench); err != nil {
			fmt.Fprintf(os.Stderr, "warm %s: %v\n", bench, err)
			return 1
		}
	}
	start := time.Now()
	fmt.Printf("fleet serving %s: %d shards, %d requests/stream, %.1f ms mean inter-arrival\n\n",
		strings.Join(names, "+"), fcfg.Shards, requests, interMs)
	errCount := runStreams(names, requests, interMs, seed, f.Submit)
	f.Close()
	snap := f.Stats()
	fmt.Println(snap.Report())
	fmt.Printf("total wall time %.1fs, %d submit errors, %d cold builds, %d installs\n",
		time.Since(start).Seconds(), errCount, snap.ColdBuilds, snap.Installs)
	if errCount > 0 {
		return 1
	}
	return 0
}

// fleetCheckRun is the cold-vs-warm validation protocol behind the CI
// fleet smoke: phase 1 serves a fully cold fleet (no pre-warming, so
// first windows absorb the measured engine-build charges), phase 2 a
// pre-warmed fleet on identical traffic. The run fails unless the
// shared cache held each phase to one cold build per benchmark, phase 2
// served no cold windows at all, and warm p99 stayed below cold p99.
func fleetCheckRun(fcfg serve.FleetConfig, names []string, requests int, interMs float64, seed uint64) int {
	fail := 0
	check := func(ok bool, format string, args ...any) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			fail = 1
		}
		fmt.Printf("%s: %s\n", status, fmt.Sprintf(format, args...))
	}

	fmt.Printf("fleet check phase 1: cold fleet (%d shards, no pre-warm), traffic pays the builds\n", fcfg.Shards)
	coldCfg := fcfg
	coldCfg.PreWarm = false
	cold := serve.NewFleet(coldCfg)
	coldErrs := runStreams(names, requests, interMs, seed, cold.Submit)
	cold.Close()
	coldSnap := cold.Stats()
	fmt.Println(coldSnap.Report())

	coldP99, coldServed := fleetColdP99(coldSnap)
	check(coldErrs == 0, "cold phase submit errors: %d", coldErrs)
	check(coldServed > 0, "cold phase served %d cold-charged responses", coldServed)
	check(coldSnap.ColdBuilds == int64(len(names)),
		"cold phase cold builds: %d, want one per benchmark (%d)", coldSnap.ColdBuilds, len(names))

	fmt.Printf("\nfleet check phase 2: pre-warmed fleet, identical traffic\n")
	warmCfg := fcfg
	warmCfg.PreWarm = true
	warm := serve.NewFleet(warmCfg)
	warmErrs := 0
	for _, bench := range names {
		if err := warm.Warm(bench); err != nil {
			fmt.Fprintf(os.Stderr, "warm %s: %v\n", bench, err)
			warmErrs++
		}
	}
	warmErrs += runStreams(names, requests, interMs, seed, warm.Submit)
	warm.Close()
	warmSnap := warm.Stats()
	fmt.Println(warmSnap.Report())

	warmP99, warmColdServed := fleetWarmP99(warmSnap)
	check(warmErrs == 0, "warm phase submit errors: %d", warmErrs)
	check(warmSnap.ColdBuilds == int64(len(names)),
		"warm phase cold builds: %d, want one per benchmark (%d)", warmSnap.ColdBuilds, len(names))
	check(warmSnap.Installs == int64(len(names)*(fcfg.Shards-1)),
		"warm phase installs: %d, want every peer pre-warmed (%d)", warmSnap.Installs, len(names)*(fcfg.Shards-1))
	check(warmColdServed == 0, "warm phase cold-charged responses: %d", warmColdServed)
	check(warmP99 > 0 && warmP99 < coldP99,
		"warm p99 %.2f ms < cold p99 %.2f ms", warmP99, coldP99)
	return fail
}

// fleetColdP99 returns the worst per-shard cold-start p99 and the total
// cold-charged responses across the fleet.
func fleetColdP99(snap serve.FleetSnapshot) (p99 float64, served int64) {
	for _, ss := range snap.Shards {
		for _, b := range ss.Benches {
			served += b.ColdServed
		}
		if ss.ColdP99Ms > p99 {
			p99 = ss.ColdP99Ms
		}
	}
	return p99, served
}

// fleetWarmP99 returns the worst per-shard warm p99 and the total
// cold-charged responses (which a pre-warmed fleet must not have).
func fleetWarmP99(snap serve.FleetSnapshot) (p99 float64, coldServed int64) {
	for _, ss := range snap.Shards {
		for _, b := range ss.Benches {
			coldServed += b.ColdServed
		}
		if ss.WarmP99Ms > p99 {
			p99 = ss.WarmP99Ms
		}
	}
	return p99, coldServed
}

// logUnit returns ln(u) for u uniform in (0, 1].
func logUnit(r *rng.RNG) float64 {
	u := r.Float64()
	if u <= 0 {
		u = 1
	}
	return math.Log(u)
}
