package main

import "fmt"

// The names below are the contract later PRs are judged against;
// BENCHMARK.json lists the same names (TestNamesMatchBenchmarkJSON) and
// README.md says what each means on each workload.

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver requires it); README.md has the
// per-workload definition.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"req_p50_ms", "ms", lower, 0.2},
	{"req_p95_ms", "ms", lower, 0.25},
	{"throughput_rps", "1/s", higher, 0.2},
	{"slo_ok_share", "share", higher, 0.05},
	{"accuracy", "share", higher, 0.005},
	{"sim_speedup_x", "x", higher, 0.001},
	{"sim_energy_saving", "share", higher, 0.001},
	{"sim_accuracy", "share", higher, 0.001},
}

// perLayer is the attribution run (-trace 1). A metric a workload does
// not exercise reads 0 there.
var perLayer = []metric{
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.wait_ms_p95", Unit: "ms", Better: lower},
	{Name: "serve.service_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.mean_batch", Unit: "count", Better: higher},
	{Name: "serve.reuse_factor", Unit: "count", Better: higher},
	{Name: "serve.windows", Unit: "count", Better: lower},
	{Name: "serve.dropped_windows", Unit: "count", Better: lower},
	{Name: "serve.rejected", Unit: "count", Better: lower},
	{Name: "serve.cancelled", Unit: "count", Better: lower},
	{Name: "serve.errors", Unit: "count", Better: lower},
	{Name: "serve.cold_builds", Unit: "count", Better: lower},
	{Name: "serve.installs", Unit: "count", Better: lower},
	{Name: "serve.fleet_rebalanced", Unit: "count", Better: lower},
	{Name: "serve.shard_max_share", Unit: "share", Better: lower},
	{Name: "serve.warm_s.MR", Unit: "s", Better: lower},
	{Name: "serve.warm_s.BABI", Unit: "s", Better: lower},
	{Name: "serve.warm_s.PTB", Unit: "s", Better: lower},
	{Name: "serve.alloc_kb_per_req", Unit: "kB", Better: lower},
	{Name: "serve.mallocs_per_req", Unit: "count", Better: lower},
	{Name: "serve.sim_gpu_ms_mean", Unit: "ms", Better: lower},
	{Name: "serve.sim_latency_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.req_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.gen_late_ms_max", Unit: "ms", Better: lower},

	{Name: "lstm.run_ms.baseline", Unit: "ms", Better: lower},
	{Name: "lstm.run_ms.inter", Unit: "ms", Better: lower},
	{Name: "lstm.run_ms.intra", Unit: "ms", Better: lower},
	{Name: "lstm.run_ms.combined", Unit: "ms", Better: lower},
	{Name: "lstm.batch_ms_per_req.b1", Unit: "ms", Better: lower},
	{Name: "lstm.batch_ms_per_req.b2", Unit: "ms", Better: lower},
	{Name: "lstm.batch_ms_per_req.b4", Unit: "ms", Better: lower},
	{Name: "lstm.run_mallocs.intra", Unit: "count", Better: lower},
	{Name: "lstm.batch_mallocs.b4", Unit: "count", Better: lower},
	{Name: "lstm.weight_bytes_per_req", Unit: "B", Better: lower},
	{Name: "lstm.skip_share", Unit: "share", Better: higher},
	{Name: "lstm.break_share", Unit: "share", Better: higher},
	{Name: "lstm.tissue_mean_size", Unit: "count", Better: higher},
	{Name: "lstm.check_sequence_us", Unit: "us", Better: lower},
	{Name: "lstm.collect_predictors_ms", Unit: "ms", Better: lower},

	{Name: "gru.run_ms.baseline", Unit: "ms", Better: lower},
	{Name: "gru.run_ms.intra", Unit: "ms", Better: lower},
	{Name: "gru.batch_ms_per_req.b1", Unit: "ms", Better: lower},
	{Name: "gru.batch_ms_per_req.b8", Unit: "ms", Better: lower},

	{Name: "tensor.packed_gemv_ns", Unit: "ns", Better: lower},
	{Name: "tensor.packed_gemv_rows_half_ns", Unit: "ns", Better: lower},
	{Name: "tensor.packed_gemm_ns", Unit: "ns", Better: lower},
	{Name: "tensor.packed_gemm_rows_ns.b4", Unit: "ns", Better: lower},
	{Name: "tensor.wide_packed_gemv_ns", Unit: "ns", Better: lower},
	{Name: "tensor.wide_packed_gemm_rows_ns.b4", Unit: "ns", Better: lower},
	{Name: "tensor.gemv_gbps", Unit: "GB/s", Better: higher},

	{Name: "intercell.relevance_ns", Unit: "ns", Better: lower},
	{Name: "intercell.align_us", Unit: "us", Better: lower},
	{Name: "intercell.find_mts_ms", Unit: "ms", Better: lower},
	{Name: "intracell.trivial_rows_ns", Unit: "ns", Better: lower},

	{Name: "model.build_s", Unit: "s", Better: lower},
	{Name: "core.new_engine_s", Unit: "s", Better: lower},
	{Name: "core.ao_sweep_s", Unit: "s", Better: lower},
	{Name: "core.evaluate_set_ms_p50", Unit: "ms", Better: lower},

	{Name: "sched.kernels_us", Unit: "us", Better: lower},
	{Name: "kernels.request_batch_us.b4", Unit: "us", Better: lower},
	{Name: "kernels.request_batch_ragged_us", Unit: "us", Better: lower},
	{Name: "kernels.specs_per_request.b4", Unit: "count", Better: lower},
	{Name: "gpu.sim_run_us.b4", Unit: "us", Better: lower},
	{Name: "gpu.sim_run_ragged_us", Unit: "us", Better: lower},
	{Name: "gpu.kernel_specs_per_s", Unit: "1/s", Better: higher},
	{Name: "gpu.sim_dram_mb", Unit: "MB", Better: lower},
	{Name: "gpu.sim_l2_hit_share", Unit: "share", Better: higher},
	{Name: "gpu.sim_mem_stall_share", Unit: "share", Better: lower},

	{Name: "trace.overhead_share", Unit: "share", Better: lower},
}

// newPerLayer has every per-layer metric at 0, which is what a metric
// reads on a workload that does not exercise its layer.
func newPerLayer() map[string]float64 {
	pl := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		pl[m.Name] = 0
	}
	return pl
}

// result is what one run of one workload reports.
type result struct {
	workload string
	// attempted and failed count checked operations over every phase of
	// the run; the metrics come from the timed span only.
	attempted, failed int
	// remeasured counts sim_sweep points evaluated a second time.
	remeasured int
	// problems lists violated correctness gates; empty means correct.
	problems []string
	endToEnd map[string]float64
	perLayer map[string]float64 // nil unless traced
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}
