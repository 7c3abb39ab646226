package lstm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mobilstm/internal/tensor"
)

// Binary network format: a little-endian stream with a magic/version
// header, the shape descriptor, and raw float32 weight data in a fixed
// order. The format is self-describing enough to validate on load and
// stable across runs, so calibrated synthetic models can be stored and
// shipped like trained checkpoints.
const (
	netMagic   = 0x4d4c5354 // "MLST"
	netVersion = 1
)

// WriteTo serializes the network.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	if err := n.Validate(); err != nil {
		return 0, fmt.Errorf("lstm: refusing to serialize invalid network: %w", err)
	}
	cw := &countWriter{w: bufio.NewWriter(w)}
	hdr := []uint32{
		netMagic, netVersion,
		uint32(n.Gate),
		uint32(len(n.Layers)),
		uint32(n.Input()), uint32(n.Hidden()), uint32(n.Classes()),
	}
	for _, v := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	for _, l := range n.Layers {
		for _, m := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo, l.Uf, l.Ui, l.Uc, l.Uo} {
			if err := writeFloats(cw, m.Data); err != nil {
				return cw.n, err
			}
		}
		for _, b := range []tensor.Vector{l.Bf, l.Bi, l.Bc, l.Bo} {
			if err := writeFloats(cw, b); err != nil {
				return cw.n, err
			}
		}
	}
	if err := writeFloats(cw, n.Head.Data); err != nil {
		return cw.n, err
	}
	if err := writeFloats(cw, n.HeadBias); err != nil {
		return cw.n, err
	}
	bw := cw.w.(*bufio.Writer)
	return cw.n, bw.Flush()
}

// ReadNetwork deserializes a network written by WriteTo.
func ReadNetwork(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	var hdr [7]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("lstm: reading header: %w", err)
		}
	}
	if hdr[0] != netMagic {
		return nil, fmt.Errorf("lstm: bad magic %#x", hdr[0])
	}
	if hdr[1] != netVersion {
		return nil, fmt.Errorf("lstm: unsupported version %d", hdr[1])
	}
	gate := tensor.Activation(hdr[2])
	layers, input, hidden, classes := int(hdr[3]), int(hdr[4]), int(hdr[5]), int(hdr[6])
	const (
		maxDim = 1 << 20
		// maxParams bounds what a header alone can make NewNetwork
		// allocate (256 MiB of float32) — several times the largest
		// Table II model, far below what the per-dimension caps admit.
		maxParams = 1 << 26
	)
	if layers < 1 || layers > 1024 || input < 1 || input > maxDim ||
		hidden < 1 || hidden > maxDim || classes < 1 || classes > maxDim {
		return nil, fmt.Errorf("lstm: implausible shape %dx%dx%dx%d", layers, input, hidden, classes)
	}
	if p := paramCount(layers, input, hidden, classes); p > maxParams {
		return nil, fmt.Errorf("lstm: shape %dx%dx%dx%d has %d parameters, limit %d", layers, input, hidden, classes, p, maxParams)
	}
	n := NewNetwork(input, hidden, layers, classes)
	n.Gate = gate
	for _, l := range n.Layers {
		for _, m := range []*tensor.Matrix{l.Wf, l.Wi, l.Wc, l.Wo, l.Uf, l.Ui, l.Uc, l.Uo} {
			if err := readFloats(br, m.Data); err != nil {
				return nil, err
			}
		}
		for _, b := range []tensor.Vector{l.Bf, l.Bi, l.Bc, l.Bo} {
			if err := readFloats(br, b); err != nil {
				return nil, err
			}
		}
	}
	if err := readFloats(br, n.Head.Data); err != nil {
		return nil, err
	}
	if err := readFloats(br, n.HeadBias); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("lstm: loaded network invalid: %w", err)
	}
	return n, nil
}

func writeFloats(w io.Writer, xs []float32) error {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader, xs []float32) error {
	buf := make([]byte, 4*len(xs))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("lstm: reading weights: %w", err)
	}
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
