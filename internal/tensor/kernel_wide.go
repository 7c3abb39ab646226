package tensor

import "math"

// The wide (fast-mode) accumulation chain. Where kernel.go's canonical
// chain is sixteen 16-strided multiply-then-add lanes, the wide chain
// is thirty-two 32-strided fused-multiply-add lanes: four groups of
// eight (each group the image of one YMM register), folded lanewise as
// (A+B)+(C+D), halved lanewise (lane k plus lane k+4 — the
// VEXTRACTF128 step), then scalar as ((m0+m1)+m2)+m3, with an FMA
// serial remainder. It is a second sanctioned chain with its own
// bitwise contract (wide-vs-wide, any GOMAXPROCS, any batch B), NOT
// interchangeable with the canonical chain: FMA skips the intermediate
// rounding of a*b, so the two chains drift by a few ULP on real
// weights (measured in EXPERIMENTS.md). Reachable only through a
// Kernels value bound to ChainAVX2.

// fma32 is one float32 fused multiply-add: a*b computed exactly, added
// to acc, rounded once. math.FMA in float64 carries the exact float32
// product and is correctly rounded, so rounding the float64 result back
// to float32 matches hardware VFMADD231SS on all inputs exercised by
// the pinned corpora; the dot_wide tests hold the assembly to it.
// (Double rounding through float64 can in principle differ from a
// native float32 FMA on adversarial 25-bit-midpoint ties; the pinned
// wide contract is therefore wide-vs-wide within one body, with the
// asm-vs-Go equality checked on fixed deterministic corpora.)
func fma32(a, b, acc float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(acc)))
}

// dotRowWideGeneric is the reference wide row kernel and the definition
// of the wide accumulation chain, mirroring dotRowGeneric's structure
// at twice the width: four groups of eight 32-strided FMA lanes
// (a,b,c,d = Y0..Y3 in dot_avx2_amd64.s), lanewise fold (A+B)+(C+D),
// lanewise halving m[k] = l[k] + l[k+4], scalar fold ((m0+m1)+m2)+m3,
// FMA remainder. The x re-slice erases the per-element bounds checks
// exactly as in the canonical twin.
func dotRowWideGeneric(row, x []float32) float32 {
	n := len(row)
	x = x[:n]
	var a, b, c, d [8]float32
	j := 0
	for ; j+32 <= n; j += 32 {
		for k := 0; k < 8; k++ {
			a[k] = fma32(row[j+k], x[j+k], a[k])
			b[k] = fma32(row[j+8+k], x[j+8+k], b[k])
			c[k] = fma32(row[j+16+k], x[j+16+k], c[k])
			d[k] = fma32(row[j+24+k], x[j+24+k], d[k])
		}
	}
	var l [8]float32
	for k := 0; k < 8; k++ {
		l[k] = (a[k] + b[k]) + (c[k] + d[k])
	}
	m0 := l[0] + l[4]
	m1 := l[1] + l[5]
	m2 := l[2] + l[6]
	m3 := l[3] + l[7]
	s := ((m0 + m1) + m2) + m3
	for ; j < n; j++ {
		s = fma32(row[j], x[j], s)
	}
	return s
}
