package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseLineBatchSweep(t *testing.T) {
	r, err := parseLine("BenchmarkRunBatch/combined/B=8-8  50  8650000 ns/op  1081250 ns/req  1234 B/op  20 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "BenchmarkRunBatch/combined/B=8" || r.Procs != 8 {
		t.Fatalf("name/procs: %q/%d", r.Name, r.Procs)
	}
	if r.NsPerOp != 8650000 || r.NsPerReq != 1081250 {
		t.Fatalf("ns/op %v, ns/req %v", r.NsPerOp, r.NsPerReq)
	}
	if r.BytesPerOp != 1234 || r.AllocsPerOp == nil || *r.AllocsPerOp != 20 {
		t.Fatalf("benchmem columns: %v %v", r.BytesPerOp, r.AllocsPerOp)
	}
}

func TestParseLineActivation(t *testing.T) {
	r, err := parseLine("BenchmarkTanhVec/sigma=2-2  200000  363.6 ns/op  1.894 ns/elem  0 B/op  0 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "BenchmarkTanhVec/sigma=2" || r.NsPerOp != 363.6 || r.NsPerElem != 1.894 {
		t.Fatalf("name %q, ns/op %v, ns/elem %v", r.Name, r.NsPerOp, r.NsPerElem)
	}
}

func TestParseFoldsMinNsWithItsMetrics(t *testing.T) {
	// Sample folding is minimum-over-ns/op, and the custom ns/req metric
	// must travel with the winning sample.
	in := `goos: linux
pkg: mobilstm
BenchmarkRunBatch/baseline/B=4-8  100  4000000 ns/op  1000000 ns/req
BenchmarkRunBatch/baseline/B=4-8  100  3600000 ns/op  900000 ns/req
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("%d entries, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Samples != 2 || b.NsPerOp != 3600000 || b.NsPerReq != 900000 {
		t.Fatalf("folded entry: samples=%d ns/op=%v ns/req=%v", b.Samples, b.NsPerOp, b.NsPerReq)
	}
}

func TestStampEnvRecordsChainAndFeatures(t *testing.T) {
	// The emitted document carries the kernel-dispatch environment: the
	// process-default chain name and the probed CPU feature string.
	doc := &document{}
	stampEnv(doc)
	switch doc.KernelChain {
	case "generic", "sse2", "avx2":
	default:
		t.Fatalf("kernel_chain = %q, want a concrete chain name", doc.KernelChain)
	}
	if doc.CPUFeatures == "" {
		t.Fatal("cpu_features is empty")
	}
}
