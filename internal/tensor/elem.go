package tensor

// The element-wise half of a recurrent step: the first-stage sums, the
// DRS compaction (KeptRowsInto, the host's CTA Reorganization Module) and
// the gather, state update and scatter over a member's kept rows. Each
// primitive has a pure-Go twin — the loop below its check, the
// definition — and, where hasBlockBody holds and the process is not
// forced generic, an AVX-512 body (elem_amd64.s) that walks sixteen rows
// per step under the RowMask's Bits as a k-mask: VCOMPRESSPS packs a
// block's kept rows into the compact vectors, VEXPANDPS spreads them
// back. Every element keeps its float32 operations in the twin's order
// with no FMA, so a body writes the twin's bits (DESIGN.md §7).

// MaskWords is the length of a RowMask's Bits for seg rows: one word
// per sixteen rows.
func MaskWords(seg int) int { return (seg + 15) / 16 }

// elemVec reports whether the element-wise bodies run: the AVX-512
// probe holds and the process default is not ChainGeneric, which pins
// every primitive to its twin.
func elemVec() bool { return hasBlockBody && ActiveKernelChain() != ChainGeneric }

// maskVec checks mk's Bits, which every primitive over kept rows takes
// with the list (KeptRowsInto and EveryRow make both), and reports
// whether a body runs. Bits that do not tile Seg or name a row past it
// are a Panicf violation — they would take a body's row-space loads and
// stores outside the vectors its caller checked; the body itself stops
// at the packed vector's end, and reports Bits that count other than
// len(Kept) rows (badBits). The twin reads only the list.
func maskVec(mk RowMask) bool {
	w := MaskWords(mk.Seg)
	if r := mk.Seg % 16; len(mk.Bits) != w || r != 0 && mk.Bits[w-1]>>r != 0 {
		Panicf("tensor: RowMask has %d mask words for %d rows", len(mk.Bits), mk.Seg)
	}
	return elemVec()
}

// badBits reports a body that found mk's Bits naming other than
// len(Kept) rows.
func badBits(ok bool, mk RowMask) {
	if !ok {
		Panicf("tensor: RowMask bits do not name its %d kept rows of %d", len(mk.Kept), mk.Seg)
	}
}

// KeptRowsInto is a group's DRS decision compacted, the host side of
// the CRM's prefix sum (§V-B): row j is kept when o[j] >= float32(alpha)
// for some o of os — a float32 compare, so a NaN is trivial, and a row
// is skipped only if it is trivial for every cell — and with alpha <= 0
// (DRS off) every row is kept. It returns the mask over dst and words:
// Seg len(dst), Kept the kept rows ascending in dst's head, Bits the
// same rows over words, which must hold MaskWords(len(dst)) words. Each
// o must be len(dst) long; every cell is checked before any row is read.
// The AVX-512 body compares sixteen rows per instruction, ORs the cells'
// k-masks into the words and lists their rows with VPCOMPRESSQ; the twin
// ORs each cell's keep flags into the words, one branch-free pass a
// cell, and lists the rows from them.
func KeptRowsInto(dst []int, words []uint16, os []Vector, alpha float64) RowMask {
	if len(words) != MaskWords(len(dst)) {
		Panicf("tensor: KeptRowsInto %d mask words for %d rows", len(words), len(dst))
	}
	for _, o := range os {
		if len(o) != len(dst) {
			Panicf("tensor: KeptRowsInto cell length %d, mask length %d", len(o), len(dst))
		}
	}
	if alpha <= 0 {
		return EveryRow(dst, words)
	}
	a := float32(alpha)
	clear(words)
	if len(dst) == 0 {
		return RowMask{Kept: dst, Bits: words}
	}
	if elemVec() {
		for _, o := range os {
			keepMask16(&words[0], &o[0], len(dst), a)
		}
		n := listRows16(&dst[0], &words[0], len(words))
		return RowMask{Seg: len(dst), Kept: dst[:n], Bits: words}
	}
	for _, o := range os {
		for j, v := range o {
			words[j/16] |= uint16(keep(v >= a)) << (j % 16)
		}
	}
	n := 0
	for j := range dst {
		dst[n] = j
		n += int(words[j/16]>>(j%16)) & 1
	}
	return RowMask{Seg: len(dst), Kept: dst[:n], Bits: words}
}

// keep is 1 for a kept row and 0 for a trivial one; the compiler lowers
// it to a flag-setting instruction, not a branch.
func keep(b bool) int {
	if b {
		return 1
	}
	return 0
}

// EveryRow fills dst with 0..len(dst)-1 and words with their bits: the
// mask that keeps every row, as a step runs without DRS.
func EveryRow(dst []int, words []uint16) RowMask {
	if len(words) != MaskWords(len(dst)) {
		Panicf("tensor: EveryRow %d mask words for %d rows", len(words), len(dst))
	}
	clear(words)
	for j := range dst {
		dst[j] = j
		words[j/16] |= 1 << (j % 16)
	}
	return RowMask{Seg: len(dst), Kept: dst, Bits: words}
}

// Sum3 sets dst[j] = a[j] + b[j] + c[j], added left to right: a gate's
// pre-activation from its W·x row, its U·h row and its bias.
func Sum3(dst, a, b, c Vector) {
	n := len(dst)
	if len(a) != n || len(b) != n || len(c) != n {
		Panicf("tensor: Sum3 lengths %d, %d, %d into %d", len(a), len(b), len(c), n)
	}
	if n > 0 && elemVec() {
		sum3x16(&dst[0], &a[0], &b[0], &c[0], n)
		return
	}
	for j := range dst {
		dst[j] = a[j] + b[j] + c[j]
	}
}

// GatherSum3 sets dst[k] = a[j] + b[j] + c[j] for the k-th row j mk
// keeps: the kept rows' pre-activations, packed. a, b and c are Seg
// long and dst len(Kept); dst may share its first element with any of
// them (kept row j lands at k ≤ j, after row k was read), and a row mk
// skips is never read.
func GatherSum3(dst, a, b, c Vector, mk RowMask) {
	if len(dst) != len(mk.Kept) || len(a) != mk.Seg || len(b) != mk.Seg || len(c) != mk.Seg {
		Panicf("tensor: GatherSum3 %d rows of %d into %d", len(mk.Kept), mk.Seg, len(dst))
	}
	if maskVec(mk) && len(dst) > 0 {
		badBits(gatherSum3x16(&dst[0], &a[0], &b[0], &c[0], &mk.Bits[0], len(mk.Bits), len(dst)), mk)
		return
	}
	for k, j := range mk.Kept {
		dst[k] = a[j] + b[j] + c[j]
	}
}

// CellState advances an LSTM cell state over the kept rows: for the
// k-th row j mk keeps, c = f[k]·s[j] + i[k]·u[k] (forget, input and
// candidate packed, s the old state), which lands in s[j] and in f[k]
// for the tanh that follows; s is zeroed at every other row (§V-A).
func CellState(s, f, i, u Vector, mk RowMask) {
	n := len(mk.Kept)
	if len(s) != mk.Seg || len(f) != n || len(i) != n || len(u) != n {
		Panicf("tensor: CellState %d rows of %d over %d, %d, %d, %d", n, mk.Seg, len(s), len(f), len(i), len(u))
	}
	if maskVec(mk) && n > 0 {
		badBits(cellState16(&s[0], &f[0], &i[0], &u[0], &mk.Bits[0], len(mk.Bits), mk.Seg, n), mk)
		return
	}
	prev := 0
	for k, j := range mk.Kept {
		c := f[k]*s[j] + i[k]*u[k]
		clear(s[prev:j])
		s[j], f[k] = c, c
		prev = j + 1
	}
	clear(s[prev:])
}

// ScatterMul sets dst[j] = g[j]·v[k] for the k-th row j mk keeps and
// zeroes every other row: the LSTM's h = o ⊙ tanh(c) spread back.
func ScatterMul(dst, g, v Vector, mk RowMask) {
	if len(dst) != mk.Seg || len(g) != mk.Seg || len(v) != len(mk.Kept) {
		Panicf("tensor: ScatterMul %d rows of %d over %d, %d, %d", len(mk.Kept), mk.Seg, len(dst), len(g), len(v))
	}
	if maskVec(mk) && len(v) > 0 {
		badBits(scatterMul16(&dst[0], &g[0], &v[0], &mk.Bits[0], len(mk.Bits), mk.Seg, len(v)), mk)
		return
	}
	prev := 0
	for k, j := range mk.Kept {
		clear(dst[prev:j])
		dst[j] = g[j] * v[k]
		prev = j + 1
	}
	clear(dst[prev:])
}

// Blend sets h[j] = (1 - z[j])·h[j] + z[j]·u[k] for the k-th row j mk
// keeps and leaves every other row of h as it is: the GRU's update over
// its kept rows, a skipped row carrying h_{t-1}.
func Blend(h, z, u Vector, mk RowMask) {
	if len(h) != mk.Seg || len(z) != mk.Seg || len(u) != len(mk.Kept) {
		Panicf("tensor: Blend %d rows of %d over %d, %d, %d", len(mk.Kept), mk.Seg, len(h), len(z), len(u))
	}
	if maskVec(mk) && len(u) > 0 {
		badBits(blend16(&h[0], &z[0], &u[0], &mk.Bits[0], len(mk.Bits), len(u)), mk)
		return
	}
	for k, j := range mk.Kept {
		h[j] = (1-z[j])*h[j] + z[j]*u[k]
	}
}
