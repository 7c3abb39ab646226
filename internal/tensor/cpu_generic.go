//go:build !amd64

package tensor

// Off amd64 there is no feature probe: both chains run their pure-Go
// bodies and every capability bit stays false.
var cpuFeatures CPUInfo

// hasWideBody, hasQuadBody, hasBlockBody, hasActBody: no AVX assembly
// body exists off amd64.
const (
	hasWideBody  = false
	hasQuadBody  = false
	hasBlockBody = false
	hasActBody   = false
)
