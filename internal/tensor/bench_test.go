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
