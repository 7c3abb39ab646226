package recurrent

import "mobilstm/internal/tensor"

// kernelFns binds the layer loops to one accumulation chain. A forward
// pass resolves RunOptions.Chain exactly once and then calls every
// chain-sensitive kernel through the same binding — the canonical and
// wide chains never mix within one run, which is what keeps each
// chain's bitwise contract (serial≡batch, any GOMAXPROCS) meaningful.
// Element-wise cell math is chain-independent. Calibration paths
// (CollectPredictors, Calibrate, the relevance analyzers) deliberately
// stay on the canonical chain: thresholds and predictors are offline
// artifacts shared across chains.
type kernelFns struct {
	gemv           func(tensor.Vector, *tensor.Matrix, tensor.Vector)
	packedGemm     func(*tensor.Matrix, *tensor.Matrix, []tensor.Vector)
	packedGemvRows func([]tensor.Vector, *tensor.Matrix, tensor.Vector, []bool, float32)
	packedGemmRows func(*tensor.Matrix, *tensor.Matrix, []tensor.Vector, [][]bool, float32)
}

var (
	canonicalKernels = kernelFns{
		gemv:           tensor.Gemv,
		packedGemm:     tensor.PackedGemm,
		packedGemvRows: tensor.PackedGemvRows,
		packedGemmRows: tensor.PackedGemmRows,
	}
	wideKernels = kernelFns{
		gemv:           tensor.WideGemv,
		packedGemm:     tensor.WidePackedGemm,
		packedGemvRows: tensor.WidePackedGemvRows,
		packedGemmRows: tensor.WidePackedGemmRows,
	}
)

// kernelsFor resolves a RunOptions chain selection to its kernel
// binding: the wide family for ChainAVX2, the canonical family for
// everything else (ChainGeneric/ChainSSE2 differ only in which body
// carries the canonical chain, which tensor dispatches internally).
func kernelsFor(c tensor.KernelChain) *kernelFns {
	if tensor.ResolveChain(c) == tensor.ChainAVX2 {
		return &wideKernels
	}
	return &canonicalKernels
}
