// Command bench is the repository's benchmark: request in → response
// out through internal/serve, the paper's simulated headline through the
// mobilstm facade, and an attribution run that times every layer on its
// own. BENCHMARK.json at the repository root names its workloads and
// metrics; README.md in this directory says why each exists.
//
//	go run ./bench -seed 1                  all four workloads, untraced then traced
//	go run ./bench -repeat 2                the gated workloads twice, compared against the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                        one run; the last line is the JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"mobilstm/internal/model"
	"mobilstm/internal/tensor"
)

// runSeconds is the timed span when -seconds is not given; BENCHMARK.json
// carries the same number as run_seconds.
const runSeconds = 40

// benchProcs pins GOMAXPROCS: the box the bounds were sized on has two
// cores, and the workloads never run more CPU-bound goroutines than that.
const benchProcs = 2

// params is what one run of a workload is given.
type params struct {
	seed uint64
	span time.Duration
	// tracer non-nil adds the traced pass, the replay and the layer
	// probes, and with them the per-layer metrics.
	tracer *tracer
}

type workload struct {
	name string
	why  string // one line; README.md has the long form
	// gated workloads are the ones BENCHMARK.json lists: the driver's time
	// limit has room for two spans long enough to repeat on a shared box,
	// and the two closed loops are the ones that do (README.md has the
	// numbers). The others run with them under `go run ./bench` and by name.
	gated bool
	run   func(params) (*result, error)
}

func serveRun(spec serveSpec) func(params) (*result, error) {
	return func(p params) (*result, error) { return runServe(spec, model.Quick(), p) }
}

var workloads = []workload{
	{"serve_closed_batch",
		"saturation: 8 closed-loop clients keep every window a full B=4 lockstep batch, so the batched GEMM forward, the batch arena and GC do the work",
		true, serveRun(serveSpecs[0])},
	{"serve_single_stream",
		"the paper's regime: one user, B=1, caller-supplied ragged sequences; GEMV-shaped, validation and the uncached ragged cost path on every window",
		true, serveRun(serveSpecs[1])},
	{"serve_open_mixed",
		"open loop at a fixed 100 req/s over a 2-shard fleet and three benchmarks in Combined mode: queue wait, routing and the host inter-cell path",
		false, serveRun(serveSpecs[2])},
	{"sim_sweep",
		"no serving: the facade sweeps 154 operating points on three LSTM and two GRU systems; carries the deterministic Fig. 14 headline",
		false, func(p params) (*result, error) { return runSim(simSweep, p) }},
}

// stamp records where and on what a result was measured.
type stamp struct {
	Go          string `json:"go"`
	OS          string `json:"goos"`
	Arch        string `json:"goarch"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	KernelChain string `json:"kernel_chain"`
	CPUFeatures string `json:"cpu_features"`
	Commit      string `json:"commit"`
	Seed        uint64 `json:"seed"`
}

func newStamp(seed uint64) stamp {
	st := stamp{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", Commit: "unknown", Seed: seed,
		KernelChain: tensor.ActiveKernelChain().String(),
		CPUFeatures: tensor.CPU().String(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				st.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The commit is known only to a binary built inside a git checkout.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	return st
}

// resultLine is the JSON object a run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints defs by name with value and unit, then the JSON line.
// A metric the run did not produce, or a value JSON cannot carry, is a
// correctness problem.
func report(w io.Writer, res *result, defs []metric, values map[string]float64) error {
	line := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue)}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.problemf("metric %s missing or not finite", m.Name)
			v = 0
		}
		line.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(w, "%-20s %-36s %14.6g %s\n", res.workload, m.Name, v, m.Unit)
	}
	for _, problem := range res.problems {
		fmt.Fprintf(w, "%-20s PROBLEM %s\n", res.workload, problem)
	}
	line.Correct = len(res.problems) == 0
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run this workload once and end with its JSON result line (default: all, untraced then traced)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed span of the serving workloads")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the traced pass and layer probes and reports the per-layer metrics instead")
	repeat := fs.Int("repeat", 0, "run the workloads BENCHMARK.json lists this many times untraced and compare the end-to-end metrics against their bounds")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/spans-<workload>.json under the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	st := newStamp(*seed)
	if data, err := json.Marshal(st); err == nil {
		fmt.Fprintf(stdout, "stamp %s\n", data)
	}
	p := params{seed: *seed, span: time.Duration(*seconds * float64(time.Second))}

	if *repeat > 0 {
		return repeatRuns(stdout, stderr, p, *repeat)
	}
	selected := workloads
	traced := true
	if *only != "" {
		selected, traced = nil, *trace != 0
		for _, w := range workloads {
			if w.name == *only {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
	}
	code := 0
	for _, w := range selected {
		if traced {
			p.tracer = newTracer()
		}
		res, err := w.run(p)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%-20s attempted %d succeeded %d failed %d\n",
			w.name, res.attempted, res.attempted-res.failed, res.failed)
		if res.remeasured > 0 {
			fmt.Fprintf(stdout, "%-20s %d points evaluated a second time\n", w.name, res.remeasured)
		}
		if traced {
			path := *traceOut
			if path == "" {
				path = filepath.Join(".bench_build", "spans-"+w.name+".json")
			}
			if err := writeTrace(path, st, p.tracer.all()); err != nil {
				fmt.Fprintf(stderr, "bench: %s: writing spans: %v\n", w.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "%-20s spans written to %s\n", w.name, path)
		}
		// With -workload the last line is the one the driver asked for;
		// without it both kinds are printed.
		if *only == "" || !traced {
			err = report(stdout, res, endToEnd, res.endToEnd)
		}
		if err == nil && traced {
			err = report(stdout, res, perLayer, res.perLayer)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if len(res.problems) > 0 {
			code = 1
		}
	}
	return code
}

// repeatRuns runs the gated workloads n times in one invocation and
// prints, per workload and end-to-end metric, every run's value, the
// largest relative difference from the first run and the bound it must
// stay within.
func repeatRuns(stdout, stderr io.Writer, p params, n int) int {
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	runs := make([][]*result, len(gated))
	code := 0
	for rep := 0; rep < n; rep++ {
		for i, w := range gated {
			res, err := w.run(p)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			for _, problem := range res.problems {
				fmt.Fprintf(stdout, "%-20s run %d PROBLEM %s\n", w.name, rep+1, problem)
				code = 1
			}
			runs[i] = append(runs[i], res)
		}
	}
	for i, w := range gated {
		for _, m := range endToEnd {
			first := runs[i][0].endToEnd[m.Name]
			var values []string
			var worst float64
			for _, res := range runs[i] {
				v := res.endToEnd[m.Name]
				values = append(values, fmt.Sprintf("%.6g", v))
				worst = math.Max(worst, ratio(math.Abs(v-first), math.Abs(first)))
			}
			verdict := "ok"
			if worst > m.Bound {
				verdict, code = "EXCEEDED", 1
			}
			fmt.Fprintf(stdout, "%-20s %-18s %-28s %s  diff %.4f  bound %.4f  %s\n",
				w.name, m.Name, strings.Join(values, " "), m.Unit, worst, m.Bound, verdict)
		}
	}
	return code
}
