package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobilstm/internal/model"
	"mobilstm/internal/rng"
	"mobilstm/internal/tensor"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0.5, 3}, {0.95, 5}, {1, 5}, {0.2, 1}, {0.21, 2}, {0.0001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample reads %v, want 0", got)
	}
	// 3000 samples leave 150 beyond the p95.
	big := make([]float64, 3000)
	for i := range big {
		big[i] = float64(i)
	}
	if got := percentile(big, 0.95); got != 2849 {
		t.Errorf("p95 of 0..2999 = %v, want 2849", got)
	}
}

func TestArrivalScheduleIsSeeded(t *testing.T) {
	const rate, span = 80, 10 * time.Second
	a := arrivalSchedule(rng.New(7), rate, span, 2)
	b := arrivalSchedule(rng.New(7), rate, span, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, arrivalSchedule(rng.New(8), rate, span, 2)) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != rate*10 {
		t.Fatalf("%d arrivals, want %d", len(a), rate*10)
	}
	for i, arr := range a {
		if i > 0 && arr.due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
	// Every slice of rate consecutive arrivals is one second of the
	// schedule and asks for each benchmark equally often.
	for k := 0; k < len(a); k += rate {
		perBench := make([]int, 2)
		for _, arr := range a[k : k+rate] {
			if arr.due/time.Second != time.Duration(k/rate) {
				t.Fatalf("arrival due at %v sits in slice %d", arr.due, k/rate)
			}
			perBench[arr.bench]++
		}
		if perBench[0] != rate/2 || perBench[1] != rate/2 {
			t.Errorf("slice %d asks for the benchmarks %v times, want %d each", k/rate, perBench, rate/2)
		}
	}
}

func TestRaggedSequencesCoverEveryLength(t *testing.T) {
	corpus := make([][]tensor.Vector, 50)
	for i := range corpus {
		corpus[i] = make([]tensor.Vector, 48)
		for c := range corpus[i] {
			corpus[i][c] = tensor.Vector{float32(i), float32(c)}
		}
	}
	seqs := raggedSequences(corpus)
	if len(seqs) != 50*raggedPerSample {
		t.Fatalf("%d sequences, want %d", len(seqs), 50*raggedPerSample)
	}
	perLength := make(map[int]int)
	for _, xs := range seqs {
		if len(xs) < 12 || len(xs) > 48 {
			t.Fatalf("length %d outside [12, 48]", len(xs))
		}
		perLength[len(xs)]++
		if last := xs[len(xs)-1]; last[1] != 47 {
			t.Fatalf("sequence does not end where its corpus sample ends: %v", last)
		}
	}
	for k := 12; k <= 48; k++ {
		if c := perLength[k]; c < 6 || c > 7 {
			t.Errorf("length %d occurs %d times, want 6 or 7", k, c)
		}
	}
}

func TestClientOrderIsSeeded(t *testing.T) {
	// 100 sequences of lengths 1..50, two of each.
	pool := make([]pooled, 100)
	for i := range pool {
		pool[i].seq = make([]tensor.Vector, 1+i%50)
	}
	d := &driver{refs: []*reference{{pool: pool}}}
	stream := func(seed uint64) []plan {
		next := d.draws(rng.New(seed))
		out := make([]plan, 250)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	a := stream(1)
	if !reflect.DeepEqual(a, stream(1)) {
		t.Fatal("same seed, different request order")
	}
	if reflect.DeepEqual(a, stream(2)) {
		t.Fatal("different seeds, same request order")
	}
	seen := make(map[int]int)
	for _, pl := range a[:200] {
		seen[pl.item]++
	}
	for item := range pool {
		if seen[item] != 2 {
			t.Errorf("item %d sent %d times in two walks of the pool, want 2", item, seen[item])
		}
	}
	// Every block of raggedBlock requests holds one sequence of each
	// length stratum, so its cells sum to about the same.
	for k := 0; k+raggedBlock <= 100; k += raggedBlock {
		cells := 0
		for _, pl := range a[k : k+raggedBlock] {
			cells += len(pool[pl.item].seq)
		}
		if mean := 25.5 * raggedBlock; float64(cells) < mean-raggedBlock || float64(cells) > mean+raggedBlock {
			t.Errorf("block %d sends %d cells, want %v within one per request", k/raggedBlock, cells, mean)
		}
	}
}

func TestBestSliceReadsTheQuietStretch(t *testing.T) {
	t0 := time.Now()
	spec := serveSpec{slice: 4, step: 2}
	var samples []sample
	// Twelve requests sent 10 ms apart: a slow stretch, a quiet one, and a
	// request past the latency limit at the end.
	for i, ms := range []float64{9, 9, 9, 9, 5, 5, 5, 6, 7, 7, 7, 70} {
		start := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		s := sample{start: start, end: start.Add(time.Duration(ms * float64(time.Millisecond))), exact: i%2 == 0}
		s.resp.Bench = "PTB"
		samples = append(samples, s)
	}
	samples[0], samples[11] = samples[11], samples[0] // order of arrival must not matter
	res := &result{endToEnd: make(map[string]float64)}
	serveEndToEnd(res, spec, samples, t0.Add(150*time.Millisecond))
	// The slices start at requests 0, 2, 4, 6 and 8; the third is the best
	// for latency, and every slice but the last takes 40 ms.
	want := map[string]float64{"req_p50_ms": 5, "req_p95_ms": 6, "throughput_rps": 100, "slo_ok_share": 11.0 / 12, "accuracy": 0.5}
	if !reflect.DeepEqual(res.endToEnd, want) {
		t.Errorf("end-to-end %v, want %v", res.endToEnd, want)
	}
	// A span shorter than one slice is one slice, up to the span's end.
	res = &result{endToEnd: make(map[string]float64)}
	serveEndToEnd(res, serveSpec{slice: 100, step: 100}, samples, t0.Add(150*time.Millisecond))
	if got := res.endToEnd; got["throughput_rps"] != 80 || got["req_p50_ms"] != 7 || got["req_p95_ms"] != 70 {
		t.Errorf("single slice: %v", got)
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 5, Parent: 3, StartNs: 25, EndNs: 45},
		{ID: 6, StartNs: 200, EndNs: 260}, // a root without children
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 10, 4: 30, 5: 20, 6: 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.open(0, "x", nil)
	ran := false
	tr.timed(id, "y", nil, func() { ran = true })
	tr.close(id)
	if !ran || id != 0 || tr.all() != nil {
		t.Errorf("nil tracer: ran %v id %d spans %v", ran, id, tr.all())
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default span is %d", bj.RunSeconds, runSeconds)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("%d workloads listed, the program gates %d", len(bj.Workloads), len(gated))
	}
	for i, w := range gated {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, the program has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n listed  %+v\n program %+v", bj.EndToEnd, endToEnd)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics listed, the program has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if l := bj.PerLayer[i]; l.Name != m.Name || l.Unit != m.Unit || l.Better != m.Better {
			t.Errorf("per_layer %d: listed %+v, the program has %+v", i, l, m)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// tiny keeps the smoke test inside the tier-1 budget: the shapes of
// internal/serve's own tests.
var tiny = model.Profile{Name: "tiny", HiddenCap: 64, LengthCap: 16,
	AccSamples: 10, PredictorSamples: 3, StatSamples: 2}

// TestSmokeEveryWorkload runs all four workloads traced at tiny sizes
// and checks that each passes its own correctness gate and prints every
// metric BENCHMARK.json names — and no other.
func TestSmokeEveryWorkload(t *testing.T) {
	smallSim := simSpec{name: simSweep.name, lstm: []string{"MR"}, gru: []string{"KWS-GRU"}, sets: []int{0, 5, 10}, profile: tiny}
	runs := map[string]func(params) (*result, error){
		simSweep.name: func(p params) (*result, error) { return runSim(smallSim, p) },
	}
	for _, spec := range serveSpecs {
		runs[spec.name] = func(p params) (*result, error) { return runServe(spec, tiny, p) }
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == simSweep.name {
				t.Skip("the facade opens quick-profile systems only")
			}
			p := params{seed: 5, span: 400 * time.Millisecond, tracer: newTracer()}
			res, err := runs[w.name](p)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted < 1 || res.failed != 0 || len(res.problems) != 0 {
				t.Errorf("attempted %d failed %d problems %v", res.attempted, res.failed, res.problems)
			}
			checkReport(t, res, endToEnd, res.endToEnd, true)
			checkReport(t, res, perLayer, res.perLayer, false)

			spans := p.tracer.all()
			names := make(map[string]bool)
			for _, s := range spans {
				names[s.Name] = true
				if s.EndNs < s.StartNs {
					t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
				}
			}
			for _, want := range []string{"setup", "traced_pass", "probes", "lstm.classify_batch.b4", "tensor.packed_gemv"} {
				if !names[want] {
					t.Errorf("no %q span among %d", want, len(spans))
				}
			}
			if w.name != simSweep.name {
				for _, want := range []string{"request", "serve.warm", "replay.window", "lstm.classify_batch", "gpu.sim_run"} {
					if !names[want] {
						t.Errorf("no %q span among %d", want, len(spans))
					}
				}
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := writeTrace(path, newStamp(p.seed), spans); err != nil {
				t.Fatal(err)
			}
			var back traceFile
			if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &back) != nil || len(back.Spans) != len(spans) {
				t.Errorf("span file does not read back: %v, %d of %d spans", err, len(back.Spans), len(spans))
			}
		})
	}
}

// checkReport verifies that report prints exactly the metrics of defs,
// by name with their unit, and ends with the driver's JSON line.
func checkReport(t *testing.T, res *result, defs []metric, values map[string]float64, nonZero bool) {
	t.Helper()
	if len(values) != len(defs) {
		t.Errorf("%d values for %d metrics", len(values), len(defs))
	}
	var buf bytes.Buffer
	if err := report(&buf, res, defs, values); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys: %v", last)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != res.attempted || line.Failed != 0 {
		t.Errorf("result line %+v", line)
	}
	for _, m := range defs {
		v, ok := line.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
			t.Errorf("%s: reported %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
		}
		if nonZero && v.Value == 0 {
			t.Errorf("%s reads 0", m.Name)
		}
		if !strings.Contains(buf.String(), " "+m.Name+" ") {
			t.Errorf("%s is not printed by name", m.Name)
		}
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%d metrics in the result line, want %d", len(line.Metrics), len(defs))
	}
}

func TestUnknownWorkloadAndFlagsAreRefused(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, errOut.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d", code)
	}
}
