//go:build !amd64

package tensor

// actVec has no vector body off amd64: SigmoidVec and TanhVec keep
// their scalar loops.
func actVec(dst, x Vector, tanh bool) int { return 0 }
