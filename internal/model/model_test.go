package model

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"mobilstm/internal/lstm"
)

// tinyProfile keeps model-package tests fast.
func tinyProfile() Profile {
	return Profile{Name: "tiny", HiddenCap: 48, LengthCap: 12,
		AccSamples: 6, PredictorSamples: 2, StatSamples: 2}
}

func TestZooMatchesTableII(t *testing.T) {
	want := map[string][3]int{ // hidden, layers, length from Table II
		"IMDB": {512, 3, 80},
		"MR":   {256, 1, 22},
		"BABI": {256, 3, 86},
		"SNLI": {300, 2, 100},
		"PTB":  {650, 3, 200},
		"MT":   {500, 4, 50},
	}
	zoo := Zoo()
	if len(zoo) != 6 {
		t.Fatalf("zoo size %d", len(zoo))
	}
	for _, b := range zoo {
		w, ok := want[b.Name]
		if !ok {
			t.Fatalf("unexpected benchmark %q", b.Name)
		}
		if b.Hidden != w[0] || b.Layers != w[1] || b.Length != w[2] {
			t.Fatalf("%s: got (%d,%d,%d), Table II says %v", b.Name, b.Hidden, b.Layers, b.Length, w)
		}
	}
}

func TestZooTasks(t *testing.T) {
	tasks := map[string]Task{"IMDB": SentimentClassification, "MR": SentimentClassification,
		"BABI": QuestionAnswering, "SNLI": Entailment, "PTB": LanguageModeling, "MT": MachineTranslation}
	for _, b := range Zoo() {
		if b.Task != tasks[b.Name] {
			t.Fatalf("%s task %q", b.Name, b.Task)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("PTB"); !ok {
		t.Fatal("PTB not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus benchmark found")
	}
}

func TestProfileCaps(t *testing.T) {
	b, _ := ByName("PTB")
	inst := Build(b, tinyProfile())
	if inst.Hidden != 48 || inst.Length != 12 {
		t.Fatalf("caps not applied: %d, %d", inst.Hidden, inst.Length)
	}
	if inst.Net.Hidden() != 48 {
		t.Fatal("network not at capped shape")
	}
}

func TestDefaultProfileEnv(t *testing.T) {
	t.Setenv("MOBILSTM_FULL", "")
	if Default().Name != "quick" {
		t.Fatal("default should be quick")
	}
	t.Setenv("MOBILSTM_FULL", "1")
	if Default().Name != "full" {
		t.Fatal("MOBILSTM_FULL=1 should select full")
	}
	t.Setenv("MOBILSTM_FULL", "0")
	if Default().Name != "quick" {
		t.Fatal("MOBILSTM_FULL=0 should select quick")
	}
}

func TestBuildDeterministic(t *testing.T) {
	b, _ := ByName("MR")
	a := Build(b, tinyProfile())
	c := Build(b, tinyProfile())
	if !reflect.DeepEqual(a.RefLabels, c.RefLabels) {
		t.Fatal("labels differ across identical builds")
	}
	if !reflect.DeepEqual(a.Seqs, c.Seqs) {
		t.Fatal("sequences differ across identical builds")
	}
	w1 := a.Net.Layers[0].Uf.Data
	w2 := c.Net.Layers[0].Uf.Data
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("weights differ across identical builds")
		}
	}
}

func TestCorpusPartition(t *testing.T) {
	b, _ := ByName("MR")
	p := tinyProfile()
	inst := Build(b, p)
	acc, refs := inst.AccSeqs()
	if len(acc) != p.AccSamples || len(refs) != p.AccSamples {
		t.Fatalf("acc slice %d/%d", len(acc), len(refs))
	}
	if len(inst.PredictorSeqs()) != p.PredictorSamples {
		t.Fatalf("predictor slice %d", len(inst.PredictorSeqs()))
	}
	if len(inst.StatSeqs()) != p.StatSamples {
		t.Fatalf("stat slice %d", len(inst.StatSeqs()))
	}
}

func TestRefLabelsAreBaselineClassifications(t *testing.T) {
	b, _ := ByName("MR")
	inst := Build(b, tinyProfile())
	for i, xs := range inst.Seqs {
		if got := inst.Net.Classify(xs, lstm.Baseline()); got != inst.RefLabels[i] {
			t.Fatalf("label %d: %d vs stored %d", i, got, inst.RefLabels[i])
		}
	}
}

func TestMarginFilterRaisesConfidence(t *testing.T) {
	// The corpus margins must be at least as large as the raw
	// distribution's lower tail: verify every accepted sample clears
	// a positive margin.
	b, _ := ByName("BABI")
	inst := Build(b, tinyProfile())
	for i, xs := range inst.Seqs {
		logits := inst.Net.Run(xs, lstm.Baseline())
		best := inst.RefLabels[i]
		for j, v := range logits {
			if j != best && float64(logits[best]-v) < 0 {
				t.Fatalf("sample %d label is not argmax", i)
			}
		}
	}
}

func TestSequenceShapes(t *testing.T) {
	b, _ := ByName("SNLI")
	inst := Build(b, tinyProfile())
	for _, xs := range inst.Seqs {
		if len(xs) != inst.Length {
			t.Fatalf("sequence length %d, want %d", len(xs), inst.Length)
		}
		for _, v := range xs {
			if len(v) != inst.Hidden {
				t.Fatalf("token dim %d, want %d", len(v), inst.Hidden)
			}
		}
	}
}

func TestPauseTokensPresent(t *testing.T) {
	// Boundary tokens must appear with roughly the configured rate and
	// carry larger magnitude — the mechanism behind weak links.
	b, _ := ByName("BABI")
	p := tinyProfile()
	p.LengthCap = 40
	p.AccSamples = 10
	inst := Build(b, p)
	strong := 0
	total := 0
	for _, xs := range inst.Seqs {
		for _, v := range xs {
			var ss float64
			for _, x := range v {
				ss += float64(x) * float64(x)
			}
			rms := math.Sqrt(ss / float64(len(v)))
			if rms > 1.6 {
				strong++
			}
			total++
		}
	}
	rate := float64(strong) / float64(total)
	if rate < 0.1 || rate > 0.6 {
		t.Fatalf("boundary-token rate %v, configured %v", rate, b.PauseRate)
	}
}

func TestCapInt(t *testing.T) {
	if capInt(10, 0) != 10 || capInt(10, 5) != 5 || capInt(3, 5) != 3 {
		t.Fatal("capInt")
	}
}

func TestBuildParallelPath(t *testing.T) {
	// Exercise the multi-worker corpus builder even on single-CPU hosts.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	b, _ := ByName("MR")
	a := Build(b, tinyProfile())
	runtime.GOMAXPROCS(1)
	c := Build(b, tinyProfile())
	if !reflect.DeepEqual(a.RefLabels, c.RefLabels) || !reflect.DeepEqual(a.Seqs, c.Seqs) {
		t.Fatal("corpus depends on worker count")
	}
}

// TestZoo checks the GRU workloads' list: three, found by name, kept
// apart from the Table II zoo.
func TestZoo(t *testing.T) {
	if len(GRUZoo()) != 3 {
		t.Fatalf("zoo size %d", len(GRUZoo()))
	}
	if _, ok := GRUByName("QA-GRU"); !ok {
		t.Fatal("QA-GRU missing")
	}
	if _, ok := GRUByName("nope"); ok {
		t.Fatal("bogus benchmark found")
	}
	if _, ok := ByName("KWS-GRU"); ok {
		t.Fatal("a GRU workload leaked into the Table II zoo")
	}
}
