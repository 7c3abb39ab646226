package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/gpu"
	"mobilstm/internal/intercell"
	"mobilstm/internal/model"
	"mobilstm/internal/sched"
	"mobilstm/internal/tensor"
)

// The LSTM figures the cost model and the engine produce, pinned as
// exact float64 bits (testdata/golden_lstm.txt): the lowering of every
// Table II shape in every mode at fixed structural statistics, and the
// MR engine's sweep. A refactor of the kernel rows, the lowering or the
// engine must leave the file untouched — a reordered float expression
// is a failure.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.txt from the current code")

var goldenModes = []sched.Mode{sched.Baseline, sched.Inter, sched.Intra, sched.Combined, sched.IntraSW, sched.ZeroPrune}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenLoweringLines simulates sched.Kernels for each Table II shape
// and mode at synthetic per-layer statistics.
func goldenLoweringLines() []string {
	cfg := gpu.TegraX1()
	sim := gpu.NewSimulator(cfg)
	var lines []string
	for _, b := range model.Zoo() {
		stats := make([]sched.LayerStats, b.Layers)
		for l := range stats {
			stats[l] = sched.LayerStats{BreakRate: 0.08 + 0.05*float64(l), SkipFrac: 0.35 + 0.1*float64(l)}
		}
		for _, mode := range goldenModes {
			res := sim.Run(sched.Kernels(sched.Plan{
				Cfg: cfg, Mode: mode, Hidden: b.Hidden, Input: b.Hidden, Length: b.Length, Layers: b.Layers,
				MTS: intercell.FindMTS(cfg, b.Hidden, 16), Stats: stats, PruneDensity: 0.315, Seed: b.Seed,
			}))
			lines = append(lines, fmt.Sprintf("lower/%s/%v cycles %s dram %s launches %d",
				b.Name, mode, bits(res.Cycles), bits(res.DRAMBytes), res.Launches))
		}
	}
	return lines
}

// goldenSweepLines evaluates the MR engine (quick profile) in the four
// paper modes at every threshold set.
func goldenSweepLines() []string {
	b, _ := model.ByName("MR")
	e := NewEngine(b, model.Quick(), gpu.TegraX1())
	var lines []string
	for _, mode := range goldenModes[:4] {
		for set := 0; set < ThresholdSets; set++ {
			o := e.EvaluateSet(mode, set)
			lines = append(lines, fmt.Sprintf("sweep/MR/%v/set%d speedup %s energy %s accuracy %s",
				mode, set, bits(o.Speedup), bits(o.EnergySaving), bits(o.Accuracy)))
		}
	}
	return lines
}

func TestGoldenLSTMFigures(t *testing.T) {
	equivtest.UseChain(t, equivtest.Canonical())
	equivtest.Golden(t, "golden_lstm.txt", append(goldenLoweringLines(), goldenSweepLines()...), *updateGolden)
}

// The quick-profile corpora the engines score against, pinned as
// fingerprints (testdata/golden_corpus.txt): an FNV-1a hash of every
// input bit of Seqs and of every RefLabels entry, and the Intra and
// Combined AO set the engine's sweep resolves, for three LSTM workloads
// and one GRU workload. The corpus builder and the scorer may batch,
// pipeline or reorder their forwards; they must leave this file
// untouched.

// corpusFingerprint hashes the corpus's input bits and its labels.
func corpusFingerprint(seqs [][]tensor.Vector, labels []int) (seqHash, labelHash uint64) {
	hs, hl := fnv.New64a(), fnv.New64a()
	var buf [4]byte
	for _, xs := range seqs {
		for _, v := range xs {
			for _, x := range v {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
				hs.Write(buf[:])
			}
		}
	}
	for _, l := range labels {
		binary.LittleEndian.PutUint32(buf[:], uint32(l))
		hl.Write(buf[:])
	}
	return hs.Sum64(), hl.Sum64()
}

// goldenCorpusLine fingerprints one engine's corpus and its two AO sets.
func goldenCorpusLine[N Net](e *EngineOf[N]) string {
	seqHash, labelHash := corpusFingerprint(e.Inst.Seqs, e.Inst.RefLabels)
	return fmt.Sprintf("corpus/%s seqs %016x labels %016x n %d intra_ao %d combined_ao %d",
		e.B.Name, seqHash, labelHash, len(e.Inst.Seqs), AOSet(e.Sweep(sched.Intra)), AOSet(e.Sweep(sched.Combined)))
}

func TestGoldenCorpus(t *testing.T) {
	equivtest.UseChain(t, equivtest.Canonical())
	var lines []string
	for _, name := range []string{"PTB", "MR", "BABI"} {
		b, _ := model.ByName(name)
		lines = append(lines, goldenCorpusLine(NewEngine(b, model.Quick(), gpu.TegraX1())))
	}
	b, _ := model.GRUByName("KWS-GRU")
	lines = append(lines, goldenCorpusLine(NewGRUEngine(b, model.GRUQuick(), gpu.TegraX1())))
	equivtest.Golden(t, "golden_corpus.txt", lines, *updateGolden)
}
