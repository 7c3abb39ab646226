//go:build amd64

package tensor

// spanBindings returns the bindings the span contracts run under: the
// pure-Go spans over dotRowGeneric, the canonical binding as the probes
// detect it, with the block probe cleared (a CPU with AVX but no
// AVX-512) and with both probes cleared (SSE2 only). A binding keeps
// the bodies it resolved after the probes are restored.
func spanBindings() []spanBinding {
	quad, block := hasQuadBody, hasBlockBody
	defer func() { hasQuadBody, hasBlockBody = quad, block }()
	bs := []spanBinding{{"generic", KernelsFor(ChainGeneric)}, {"probed", KernelsFor(ChainSSE2)}}
	hasBlockBody = false
	bs = append(bs, spanBinding{"block probe cleared", KernelsFor(ChainSSE2)})
	hasQuadBody = false
	return append(bs, spanBinding{"both probes cleared", KernelsFor(ChainSSE2)})
}
