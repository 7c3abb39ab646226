package gru

import (
	"testing"

	"mobilstm/internal/gpu"
)

func tinyGRUProfile() EngineProfile {
	return EngineProfile{HiddenCap: 48, LengthCap: 16, AccSamples: 12, StatSamples: 2}
}

func TestZoo(t *testing.T) {
	if len(Zoo()) != 3 {
		t.Fatalf("zoo size %d", len(Zoo()))
	}
	if _, ok := ZooByName("QA-GRU"); !ok {
		t.Fatal("QA-GRU missing")
	}
	if _, ok := ZooByName("nope"); ok {
		t.Fatal("bogus benchmark found")
	}
}

func TestEngineBaseline(t *testing.T) {
	b, _ := ZooByName("KWS-GRU")
	e := NewEngine(b, tinyGRUProfile(), gpu.TegraX1())
	o := e.Evaluate(0)
	if o.Speedup != 1 || o.Accuracy != 1 {
		t.Fatalf("baseline outcome %+v", o)
	}
	if e.MTS < 2 {
		t.Fatalf("GRU MTS %d", e.MTS)
	}
}

func TestEngineCombinedImproves(t *testing.T) {
	b, _ := ZooByName("KWS-GRU")
	e := NewEngine(b, tinyGRUProfile(), gpu.TegraX1())
	o := e.Evaluate(8)
	if o.Speedup <= 1 {
		t.Fatalf("no speedup at set 8: %+v", o)
	}
	if o.Accuracy < 0.6 {
		t.Fatalf("accuracy collapsed: %+v", o)
	}
	if o.SkipFrac <= 0 {
		t.Fatal("no candidate rows skipped")
	}
}

func TestEngineMonotoneThresholds(t *testing.T) {
	b, _ := ZooByName("KWS-GRU")
	e := NewEngine(b, tinyGRUProfile(), gpu.TegraX1())
	prevI, prevA := -1.0, -1.0
	for set := 0; set <= 10; set++ {
		ai, aa := e.Thresholds(set)
		if ai < prevI || aa < prevA {
			t.Fatalf("thresholds not monotone at %d", set)
		}
		prevI, prevA = ai, aa
	}
}

func TestEngineDeterministic(t *testing.T) {
	b, _ := ZooByName("KWS-GRU")
	e1 := NewEngine(b, tinyGRUProfile(), gpu.TegraX1())
	e2 := NewEngine(b, tinyGRUProfile(), gpu.TegraX1())
	a := e1.Evaluate(6)
	c := e2.Evaluate(6)
	if a != c {
		t.Fatalf("engine nondeterministic: %+v vs %+v", a, c)
	}
}

func TestGRUCalibrateSpread(t *testing.T) {
	n := testNet(31, 2, 4)
	seqs := seqsFor(32, 12, 3)
	Calibrate(n, seqs, func(int) float64 { return 1.0 })
	// Layer 0 spread exactly normalized.
	var sumSq float64
	var count int
	tmp := make([]float32, n.Layers[0].Hidden)
	for _, xs := range seqs {
		for _, x := range xs {
			for _, w := range n.Layers[0].InputWeights() {
				for i := 0; i < w.Rows; i++ {
					var s float32
					row := w.Row(i)
					for j := range row {
						s += row[j] * x[j]
					}
					tmp[i] = s
					sumSq += float64(s) * float64(s)
					count++
				}
			}
		}
	}
	rms := sumSq / float64(count)
	if rms < 0.9 || rms > 1.1 {
		t.Fatalf("layer-0 spread^2 %v, want ~1", rms)
	}
}

func TestGRUCalibratePanics(t *testing.T) {
	n := testNet(33, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without sequences")
		}
	}()
	Calibrate(n, nil, func(int) float64 { return 1 })
}
