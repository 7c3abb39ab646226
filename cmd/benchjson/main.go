// Command benchjson turns `go test -bench` text output into a stable
// JSON document (see `make bench-json`, which writes BENCH_hotpath.json
// at the repo root). Each benchmark line contributes ns/op plus the
// optional -benchmem and SetBytes columns (B/op, allocs/op, MB/s) and
// two custom metrics reported via b.ReportMetric: the batch sweep's
// per-request cost (ns/req, BenchmarkRunBatch) and the activation
// passes' per-element cost (ns/elem, BenchmarkSigmoidVec/TanhVec).
//
// When the input holds several samples of the same benchmark (a
// `-count` > 1 run), the emitted entry is the minimum-ns/op sample and
// `samples` records how many were seen. Minimum-over-counts is the
// noise protocol used throughout EXPERIMENTS.md: on a shared, noisy
// machine the fastest sample is the closest estimate of the code's
// cost, while means smear scheduler interference into the trajectory.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | benchjson > bench.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mobilstm/internal/tensor"
)

// result is one benchmark after sample folding.
type result struct {
	Name        string   `json:"name"`
	Pkg         string   `json:"pkg,omitempty"`
	Procs       int      `json:"procs,omitempty"`
	Runs        int      `json:"runs"`
	Samples     int      `json:"samples"`
	NsPerOp     float64  `json:"ns_per_op"`
	NsPerReq    float64  `json:"ns_per_req,omitempty"`
	NsPerElem   float64  `json:"ns_per_elem,omitempty"`
	MBPerS      float64  `json:"mb_per_s,omitempty"`
	BytesPerOp  float64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

type document struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// KernelChain is the kernel chain this process would dispatch by
	// default (the MOBILSTM_KERNEL_CHAIN-resolved process default) and
	// CPUFeatures the probed SIMD feature set — so a trajectory of
	// BENCH_hotpath.json files records which chain and hardware produced
	// each point. Benchmarks that force a chain per sub-benchmark (the
	// hotpath chain sweep) encode it in the benchmark name instead.
	KernelChain string    `json:"kernel_chain,omitempty"`
	CPUFeatures string    `json:"cpu_features,omitempty"`
	Benchmarks  []*result `json:"benchmarks"`
}

func main() {
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	stampEnv(doc)
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
}

// stampEnv records the kernel-dispatch environment the benchmarks ran
// under: the process-default chain and the probed CPU feature set.
func stampEnv(doc *document) {
	doc.KernelChain = tensor.ActiveKernelChain().String()
	doc.CPUFeatures = tensor.CPU().String()
}

func parse(sc *bufio.Scanner) (*document, error) {
	doc := &document{}
	// Insertion-ordered fold: byName finds the slot, order keeps the
	// output in first-appearance order so diffs stay readable.
	byName := map[string]*result{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			r.Pkg = pkg
			key := pkg + "." + r.Name
			if prev, ok := byName[key]; ok {
				prev.Samples++
				if r.NsPerOp < prev.NsPerOp {
					samples := prev.Samples
					*prev = *r
					prev.Samples = samples
				}
			} else {
				byName[key] = r
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	return doc, sc.Err()
}

// parseLine decodes one benchmark result line, e.g.
//
//	BenchmarkRun/baseline-8  130  8650000 ns/op  123 B/op  20 allocs/op
//
// The name's trailing -N is the GOMAXPROCS suffix the testing package
// appends; it is split into Procs so names stay comparable across
// machines.
func parseLine(line string) (*result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return nil, fmt.Errorf("want at least name, runs and one value/unit pair")
	}
	r := &result{Samples: 1}
	r.Name = fields[0]
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	runs, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("runs column: %w", err)
	}
	r.Runs = runs
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, sawNs = v, true
		case "ns/req":
			// The batch sweep's per-request cost: one RunBatch op serves
			// B requests, so ns/req = ns/op / B.
			r.NsPerReq = v
		case "ns/elem":
			r.NsPerElem = v
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			allocs := v
			r.AllocsPerOp = &allocs
		}
	}
	if !sawNs {
		return nil, fmt.Errorf("no ns/op column")
	}
	return r, nil
}
