package recurrent

import (
	"sync"

	"mobilstm/internal/tensor"
)

// wavefrontChunk is K, the cells a layer hands to the layer above at a
// time: one four-input block of the input GEMM, so a chunk's W·x is the
// block call the whole-layer GEMM makes for the same cells, and four
// steps of work per layer (~30 µs at the served PTB shape), enough to
// amortize the hand-off. K = 8 measured slower than K = 4 at every
// sequence length.
const wavefrontChunk = 4

// RunWavefrontE is the serving-path forward of one sequence allowed to
// use more than one core. A network of two or more layers under
// Baseline or Intra runs as a layer wavefront, the stacked layers
// pipelined over helper goroutines, and pipelined reports true. One
// layer has nothing to pipeline, and dividing a layer under Inter or
// Combined needs the whole layer's relevance first, so those run Run's
// layer loop on the caller. The logits (and a Trace) are bitwise those
// of Run either way, at any GOMAXPROCS. Like ClassifyBatchE it reports
// validation and shape violations as an error — a helper's included —
// and no goroutine it starts outlives the call.
func (n *Network[C]) RunWavefrontE(xs []tensor.Vector, opt RunOptions) (logits tensor.Vector, pipelined bool, err error) {
	defer tensor.Guard(&err)
	if opt.Inter || len(n.Layers) < 2 || len(xs) == 0 {
		return n.Run(xs, opt), false, nil
	}
	return n.wavefront(xs, opt), true, nil
}

// wavefront is the layer loop of one member with the layers pipelined:
// layer 0 runs on the calling goroutine and every layer above on a
// helper of its own. Layer l computes chunk c's W·x and steps its cells
// as soon as layer l-1 has published chunk c's hidden rows, so layer l
// steps cell t while layer l-1 steps a later chunk — the layer overlap
// of Appleyard et al. (§3.3), and the §II-C server wavefront
// sched.Wavefront models. Every layer takes an arena from its own pool
// for the call and hands it back when the call ends, and a chunk's W·x
// goes to that chunk's rows of the layer's W·x slab. Every
// W·x row is the same dot chain whichever chunk computes it, and every
// step the same one-cell group on the same values as in the layer loop,
// so logits and trace are bitwise Run's.
//
// A layer that stops — done, or panicking — closes its channel, so the
// layer above stops at the first chunk that never came; the helpers'
// panics are carried over the join and re-raised here, the lowest layer
// first, where the caller's Guard sees them.
func (n *Network[C]) wavefront(xs []tensor.Vector, opt RunOptions) tensor.Vector {
	ks := tensor.KernelsFor(tensor.ChainAuto)
	layers := len(n.Layers)
	scs := make([]*forwardScratch, layers)
	hss := make([][]tensor.Vector, layers)
	for li, l := range n.Layers {
		scs[li] = l.cache().arena()
	}
	defer func() {
		for li, l := range n.Layers {
			l.cache().release(scs[li])
		}
	}()
	for li, l := range n.Layers {
		scs[li].reset(l.Shape(), opt, len(xs))
		hss[li] = scs[li].nextHS()
	}
	var lts []LayerTrace
	if opt.Trace != nil {
		base := len(opt.Trace.Layers)
		for li := range n.Layers {
			opt.Trace.Layers = append(opt.Trace.Layers, LayerTrace{Layer: li, Cells: len(xs)})
		}
		lts = opt.Trace.Layers[base:]
	}

	// published[l] carries one token per chunk of layer l's hidden rows;
	// its buffer holds every chunk, so no layer waits on the one above.
	chunks := (len(xs) + wavefrontChunk - 1) / wavefrontChunk
	published := make([]chan struct{}, layers)
	for li := range published {
		published[li] = make(chan struct{}, chunks)
	}
	layer := func(li int) {
		defer close(published[li])
		l, sc, hs := n.Layers[li], scs[li], hss[li]
		in := xs
		if li > 0 {
			in = hss[li-1]
		}
		var lt *LayerTrace
		if lts != nil {
			lt = &lts[li]
		}
		pw := packed(l)
		sc.begin(li, l, pw, opt, lt)
		cols := sc.wx.Cols
		win := tensor.Matrix{Cols: cols}
		for lo := 0; lo < len(xs); lo += wavefrontChunk {
			hi := min(lo+wavefrontChunk, len(xs))
			if li > 0 {
				if _, ok := <-published[li-1]; !ok {
					return
				}
			}
			win.Rows, win.Data = hi-lo, sc.wx.Data[lo*cols:hi*cols]
			ks.PackedGemm(&win, pw.w, in[lo:hi])
			for k := lo; k < hi; k++ {
				sc.step(k, l, pw, opt, lt, ks, hs, nil)
			}
			published[li] <- struct{}{}
		}
	}

	panics := make([]any, layers)
	var wg sync.WaitGroup
	for li := 1; li < layers; li++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			panics[li] = tensor.Recovered(func() { layer(li) })
		}()
	}
	panics[0] = tensor.Recovered(func() { layer(0) })
	wg.Wait()
	for _, p := range panics {
		tensor.Repanic(p)
	}

	out := tensor.NewVector(n.Head.Rows)
	ks.Gemv(out, n.Head, hss[layers-1][len(xs)-1])
	tensor.Add(out, out, n.HeadBias)
	return out
}
