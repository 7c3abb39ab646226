package tensor

import (
	"strconv"
	"testing"

	"mobilstm/internal/rng"
)

// Micro-benchmarks for the kernel tiers. Shapes mirror the hot path:
// h=650 is the paper's PTB hidden size, so the LSTM united U matrix is
// 2600×650 and the GRU's U_{z,r} is 1300×650. SetBytes counts the
// weight stream (the quantity the paper's memory model bounds), so
// ns/op converts to an effective weight bandwidth in MB/s.

func benchDims(h int) (united *Matrix, gates []*Matrix, x Vector) {
	r := rng.New(0xbe9c)
	gates = make([]*Matrix, 4)
	for g := range gates {
		gates[g] = randMatrix(r, h, h)
	}
	return Pack(gates...), gates, randVector(r, h)
}

func BenchmarkGemvPerGate(b *testing.B) {
	const h = 650
	_, gates, x := benchDims(h)
	dsts := []Vector{NewVector(h), NewVector(h), NewVector(h), NewVector(h)}
	b.SetBytes(int64(4*h) * int64(h) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := range gates {
			Gemv(dsts[g], gates[g], x)
		}
	}
}

func benchPackedGemv(b *testing.B, packedGemv func([]Vector, *Matrix, Vector)) {
	const h = 650
	united, _, x := benchDims(h)
	dsts := []Vector{NewVector(h), NewVector(h), NewVector(h), NewVector(h)}
	b.SetBytes(united.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packedGemv(dsts, united, x)
	}
}

func BenchmarkPackedGemv(b *testing.B) { benchPackedGemv(b, PackedGemv) }

func BenchmarkPackedGemvRowsSkipHalf(b *testing.B) {
	const h = 650
	united, _, x := benchDims(h)
	dsts := []Vector{NewVector(h), NewVector(h), NewVector(h), NewVector(h)}
	skip := make([]bool, h)
	for i := range skip {
		skip[i] = i%2 == 0
	}
	b.SetBytes(united.SizeBytes() / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackedGemvRows(dsts, united, x, skip, -1)
	}
}

// BenchmarkPackedGemvRowsSkipRandom is BenchmarkPackedGemvRowsSkipHalf
// under seeded random masks at the served skip share (0.6 of the rows
// trivial at α_intra = 0.225), a fresh one per op from a set of 16 as
// in the forward, where every step has its own: a pattern the branch
// predictor cannot learn, unlike SkipHalf's alternation, so a per-row
// skip test shows its cost here.
func BenchmarkPackedGemvRowsSkipRandom(b *testing.B) {
	const h = 650
	united, _, x := benchDims(h)
	dsts := []Vector{NewVector(h), NewVector(h), NewVector(h), NewVector(h)}
	r := rng.New(0x5c1b)
	skips := make([][]bool, 16)
	var kept int64
	for i := range skips {
		skips[i] = randMask(r, h, 0.6)
		kept += int64(len(maskOf(skips[i]).Kept))
	}
	b.SetBytes(united.SizeBytes() * kept / int64(len(skips)*h))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackedGemvRows(dsts, united, x, skips[i%len(skips)], -1)
	}
}

func benchPackedGemm(b *testing.B, packedGemm func(*Matrix, *Matrix, []Vector)) {
	const h, steps = 650, 16
	united, _, _ := benchDims(h)
	r := rng.New(0x9c27)
	xs := make([]Vector, steps)
	for t := range xs {
		xs[t] = randVector(r, h)
	}
	dst := NewMatrix(steps, 4*h)
	b.SetBytes(united.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packedGemm(dst, united, xs)
	}
}

func BenchmarkPackedGemm(b *testing.B) { benchPackedGemm(b, PackedGemm) }

// servedUnited is the united matrix of the served PTB forward (h = 192,
// 4h × h) and n Gaussian inputs for it.
func servedUnited(n int) (*Matrix, []Vector) {
	const h = 192
	united, _, _ := benchDims(h)
	r := rng.New(0x5e7d)
	xs := make([]Vector, n)
	for t := range xs {
		xs[t] = randVector(r, h)
	}
	return united, xs
}

// BenchmarkPackedGemmLayer is the served input GEMM (step 2 of
// Algorithm 1): the 768×192 united W over a 48-cell layer, the shape of
// the repository benchmark's tensor.packed_gemm probe.
func BenchmarkPackedGemmLayer(b *testing.B) {
	united, xs := servedUnited(48)
	dst := NewMatrix(len(xs), united.Rows)
	b.SetBytes(united.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackedGemm(dst, united, xs)
	}
}

// BenchmarkPackedGemmRows is one recurrent step of a B = 4 batch over
// the served 768×192 united U with nil masks (the first stage, and the
// second stage without Intra) — the shape of the repository
// benchmark's tensor.packed_gemm_rows probe. One op is 16 steps, so the
// short bench-json protocol still times ~0.5 ms.
func BenchmarkPackedGemmRows(b *testing.B) {
	const steps = 16
	united, xs := servedUnited(4)
	dst := NewMatrix(len(xs), united.Rows)
	b.SetBytes(steps * united.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range steps {
			PackedGemmRows(dst, united, xs, nil, 0)
		}
	}
}

// BenchmarkPackedGemmRowsMasked is the masked second stage of that
// B = 4 step: the served 576×192 united U_{f,i,c}, each member under a
// seeded random DRS mask at the served skip share (0.6 of the rows
// trivial), compacted once. As in the forward, every step of the 16 in
// an op draws its own masks, so the branch predictor cannot learn them
// across steps.
func BenchmarkPackedGemmRowsMasked(b *testing.B) {
	const steps, h = 16, 192
	united, xs := servedUnited(4)
	u2 := united.RowBlock(0, 3*h)
	r := rng.New(0x5c1c)
	masks := make([][]RowMask, steps)
	var kept int64
	for s := range masks {
		masks[s] = make([]RowMask, len(xs))
		for i := range masks[s] {
			masks[s][i] = maskOf(randMask(r, h, 0.6))
			kept += int64(len(masks[s][i].Kept))
		}
	}
	dst := NewMatrix(len(xs), u2.Rows)
	b.SetBytes(u2.SizeBytes() * kept / int64(len(xs)*h))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range masks {
			PackedGemmRows(dst, u2, xs, m, 0)
		}
	}
}

// BenchmarkWidePackedGemv / BenchmarkWidePackedGemm are the same bodies
// on the wide chain (AVX2/FMA 32-lane). The canonical names stay
// unsuffixed so the BENCH_hotpath.json trajectory is uninterrupted; the
// Wide entries add the fast-mode points alongside.
func BenchmarkWidePackedGemv(b *testing.B) { benchPackedGemv(b, WidePackedGemv) }

func BenchmarkWidePackedGemm(b *testing.B) { benchPackedGemm(b, KernelsFor(ChainAVX2).PackedGemm) }

// BenchmarkSigmoidVec / BenchmarkTanhVec time activation passes over
// h = 192 blocks (the PTB hidden size of the serve workloads) of
// Gaussian pre-activations at three scales: σ = 0.5 stays inside the
// vector body's range, σ = 6 sends more lanes to the scalar fallback
// (sigmoid's saturated tails, tanh's large |x|). One op is 64 blocks,
// so the short bench-json protocol still times ~1 ms; ns/elem is ns/op
// over the 64·192 elements.
func BenchmarkSigmoidVec(b *testing.B) { benchActivation(b, SigmoidVec) }

func BenchmarkTanhVec(b *testing.B) { benchActivation(b, TanhVec) }

func benchActivation(b *testing.B, vec func(dst, x Vector)) {
	const h, blocks = 192, 64
	for _, sigma := range []float64{0.5, 2, 6} {
		b.Run("sigma="+strconv.FormatFloat(sigma, 'g', -1, 64), func(b *testing.B) {
			r := rng.New(0xac71)
			x, dst := NewMatrix(blocks, h), NewMatrix(blocks, h)
			for i := range x.Data {
				x.Data[i] = r.NormF32(0, sigma)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < blocks; k++ {
					vec(dst.Row(k), x.Row(k))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(blocks*h), "ns/elem")
		})
	}
}
