package serve

import (
	"fmt"
	"sort"
	"time"

	"mobilstm/internal/report"
	"mobilstm/internal/stats"
	"mobilstm/internal/tensor"
)

// benchStats is one benchmark's serving counters, guarded by the
// server's stats mutex.
type benchStats struct {
	// first is the benchmark's activity baseline: the earlier of its
	// first submitted request and its Warm call. Throughput is measured
	// over the window since first, per benchmark — NOT over the global
	// server uptime, which Warm used to reset for everybody.
	first time.Time

	submitted int64
	served    int64
	rejected  int64
	cancelled int64
	errors    int64

	batches    int64
	dropped    int64
	runBatches int64
	wavefronts int64
	sumBatch   int64

	coldBuilds int64
	installs   int64

	scored  int64
	correct int64

	waitSum   float64
	gpuSum    float64
	busyMs    float64
	latencies []float64
	coldLats  []float64
	warmLats  []float64

	set int
}

// bump applies fn to a benchmark's counters under the stats lock. The
// first touch stamps the benchmark's activity baseline.
func (s *Server) bump(bench string, fn func(*benchStats)) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st := s.stats[bench]
	if st == nil {
		st = &benchStats{set: -1}
		s.stats[bench] = st
	}
	if st.first.IsZero() {
		st.first = time.Now()
	}
	fn(st)
}

// BenchSnapshot is one benchmark's view in a Snapshot.
type BenchSnapshot struct {
	Bench string
	// Set is the threshold set the benchmark is served at (-1 until the
	// first batch resolves it).
	Set int

	// Counters over the snapshot's uptime.
	Submitted, Served, Rejected, Cancelled, Errors int64

	// MeanBatch is the mean served batch size across dispatched windows
	// (dropped windows count with size zero — dispatch reality, not just
	// the windows that happened to run).
	MeanBatch float64
	// Windows counts dispatched batching windows; DroppedWindows the
	// ones that served nobody (all members cancelled or malformed, or
	// the window failed outright).
	Windows        int64
	DroppedWindows int64
	// RunBatches counts forward launches (one per successfully served
	// window: a ClassifyBatch, or a lone member's wavefront):
	// Served/RunBatches is the realized
	// host-side weight-reuse factor of the §II-C batching trade.
	RunBatches int64
	// Wavefronts counts the served windows among them whose lone member
	// ran as a layer wavefront on a spare core.
	Wavefronts int64
	// WindowS is the benchmark's activity window in seconds (since its
	// first submit or Warm); Throughput is served requests per second of
	// that window.
	WindowS    float64
	Throughput float64
	// ColdBuilds counts cold engine builds (full JIT) this benchmark
	// paid here; Installs counts warm-artifact installs adopted from the
	// shared cache instead.
	ColdBuilds int64
	Installs   int64
	// ColdServed counts responses whose window absorbed a cold build;
	// ColdP99Ms / WarmP99Ms split the p99 latency by cold vs warm — the
	// fleet's cold-start-vs-steady-state gap, made measurable.
	ColdServed int64
	ColdP99Ms  float64
	WarmP99Ms  float64
	// MeanWaitMs / MeanGPUMs split the mean latency into queueing wait
	// and simulated batch GPU time; P50/P95LatencyMs are end-to-end
	// (cold-start charges included).
	MeanWaitMs   float64
	MeanGPUMs    float64
	P50LatencyMs float64
	P95LatencyMs float64
	// Accuracy is the fraction of scored responses matching their
	// reference label; Scored how many responses had one.
	Accuracy float64
	Scored   int64
}

// Snapshot is a point-in-time view of the server's counters.
type Snapshot struct {
	Uptime time.Duration
	// Device names the simulated device class the server's cost model
	// runs on (the shard's hardware in a fleet).
	Device string
	// Chain names the kernel chain requests execute under: the process
	// default, which MOBILSTM_KERNEL_CHAIN sets.
	Chain   string
	Benches []BenchSnapshot

	// GPUBusyMs sums simulated engine time (batch GPU launches plus
	// engine-materialization charges) across benchmarks; Utilization is
	// that busy time over wall-clock uptime — the per-shard load signal
	// the fleet report surfaces.
	GPUBusyMs   float64
	Utilization float64

	// Fleet-facing aggregates across this server's benchmarks.
	ColdBuilds int64
	Installs   int64
	ColdP99Ms  float64
	WarmP99Ms  float64
	P95Ms      float64
}

// device is the simulated device class the server's cost model runs on.
func (s *Server) device() string {
	if s.cfg.Device.Name != "" {
		return s.cfg.Device.Name
	}
	return s.cfg.GPU.Name
}

// Stats snapshots the serving counters. Safe to call concurrently with
// serving; benchmarks are ordered by name.
func (s *Server) Stats() Snapshot {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	now := time.Now()
	snap := Snapshot{
		Uptime: now.Sub(s.start),
		Device: s.device(),
		Chain:  tensor.ActiveKernelChain().String(),
	}
	names := make([]string, 0, len(s.stats))
	for name := range s.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	var allLats, coldAll, warmAll []float64
	for _, name := range names {
		st := s.stats[name]
		bs := BenchSnapshot{
			Bench:          name,
			Set:            st.set,
			Submitted:      st.submitted,
			Served:         st.served,
			Rejected:       st.rejected,
			Cancelled:      st.cancelled,
			Errors:         st.errors,
			Scored:         st.scored,
			Windows:        st.batches,
			DroppedWindows: st.dropped,
			RunBatches:     st.runBatches,
			Wavefronts:     st.wavefronts,
			ColdBuilds:     st.coldBuilds,
			Installs:       st.installs,
			ColdServed:     int64(len(st.coldLats)),
		}
		if st.batches > 0 {
			bs.MeanBatch = float64(st.sumBatch) / float64(st.batches)
		}
		if !st.first.IsZero() {
			bs.WindowS = now.Sub(st.first).Seconds()
		}
		if bs.WindowS > 0 {
			bs.Throughput = float64(st.served) / bs.WindowS
		}
		if st.served > 0 {
			bs.MeanWaitMs = st.waitSum / float64(st.served)
			bs.MeanGPUMs = st.gpuSum / float64(st.served)
			bs.P50LatencyMs = stats.QuantileOf(st.latencies, 0.50)
			bs.P95LatencyMs = stats.QuantileOf(st.latencies, 0.95)
		}
		if len(st.coldLats) > 0 {
			bs.ColdP99Ms = stats.QuantileOf(st.coldLats, 0.99)
		}
		if len(st.warmLats) > 0 {
			bs.WarmP99Ms = stats.QuantileOf(st.warmLats, 0.99)
		}
		if st.scored > 0 {
			bs.Accuracy = float64(st.correct) / float64(st.scored)
		}
		snap.GPUBusyMs += st.busyMs
		snap.ColdBuilds += st.coldBuilds
		snap.Installs += st.installs
		allLats = append(allLats, st.latencies...)
		coldAll = append(coldAll, st.coldLats...)
		warmAll = append(warmAll, st.warmLats...)
		snap.Benches = append(snap.Benches, bs)
	}
	if up := snap.Uptime.Seconds(); up > 0 {
		snap.Utilization = snap.GPUBusyMs / (up * 1e3)
	}
	if len(coldAll) > 0 {
		snap.ColdP99Ms = stats.QuantileOf(coldAll, 0.99)
	}
	if len(warmAll) > 0 {
		snap.WarmP99Ms = stats.QuantileOf(warmAll, 0.99)
	}
	if len(allLats) > 0 {
		snap.P95Ms = stats.QuantileOf(allLats, 0.95)
	}
	return snap
}

// Report renders the snapshot as a per-benchmark serving table.
func (snap Snapshot) Report() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Serving stats (%s, %s chain, %.1fs uptime, %.1f%% busy)",
			snap.Device, snap.Chain, snap.Uptime.Seconds(), snap.Utilization*100),
		"Benchmark", "set", "served", "rej", "req/s", "batch", "drop",
		"cold", "wait ms", "gpu ms", "p50 ms", "p95 ms",
		"p99 cold", "p99 warm", "accuracy")
	for _, b := range snap.Benches {
		acc := "-"
		if b.Scored > 0 {
			acc = fmt.Sprintf("%.1f%%", b.Accuracy*100)
		}
		t.AddRowf(b.Bench,
			fmt.Sprintf("%d", b.Set),
			fmt.Sprintf("%d", b.Served),
			fmt.Sprintf("%d", b.Rejected),
			fmt.Sprintf("%.1f", b.Throughput),
			fmt.Sprintf("%.1f", b.MeanBatch),
			fmt.Sprintf("%d", b.DroppedWindows),
			fmt.Sprintf("%d/%d", b.ColdBuilds, b.Installs),
			fmt.Sprintf("%.2f", b.MeanWaitMs),
			fmt.Sprintf("%.2f", b.MeanGPUMs),
			fmt.Sprintf("%.2f", b.P50LatencyMs),
			fmt.Sprintf("%.2f", b.P95LatencyMs),
			quantileCell(b.ColdP99Ms, b.ColdServed > 0),
			quantileCell(b.WarmP99Ms, b.Served > b.ColdServed),
			acc)
	}
	return t
}

// quantileCell formats a latency quantile, or "-" when no sample backs
// it.
func quantileCell(ms float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.2f", ms)
}
