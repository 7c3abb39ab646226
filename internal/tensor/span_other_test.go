//go:build !amd64

package tensor

// spanBindings returns the bindings the span contracts run under: off
// amd64 both are the pure-Go spans, over dotRowGeneric and the
// canonical binding's row body.
func spanBindings() []spanBinding {
	return []spanBinding{{"generic", KernelsFor(ChainGeneric)}, {"canonical", KernelsFor(ChainSSE2)}}
}
