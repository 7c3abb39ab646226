package lstm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mobilstm/internal/tensor"
)

// hostileHeaders are the deserializer's regression inputs: a well-formed
// small network whose gate byte names no gate (accepted, it made the
// first Run panic in Activation.Apply), and a bare 28-byte header
// claiming input = hidden = 1<<20 (it made NewNetwork request eight
// 4 TiB matrices before a single weight was read).
func hostileHeaders(tb testing.TB) (badGate, hugeShape []byte) {
	var buf bytes.Buffer
	if _, err := NewNetwork(3, 4, 1, 2).WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	badGate = buf.Bytes()
	binary.LittleEndian.PutUint32(badGate[8:], 7)
	for _, v := range []uint32{netMagic, netVersion, uint32(tensor.ActSigmoid), 1, 1 << 20, 1 << 20, 2} {
		hugeShape = binary.LittleEndian.AppendUint32(hugeShape, v)
	}
	return badGate, hugeShape
}

func TestReadNetworkRejectsHostileHeaders(t *testing.T) {
	badGate, hugeShape := hostileHeaders(t)
	for name, data := range map[string][]byte{"gate byte 7": badGate, "4 TiB shape": hugeShape} {
		if _, err := ReadNetwork(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadNetwork feeds arbitrary bytes to the deserializer: it must
// reject garbage with an error, never panic or over-allocate.
func FuzzReadNetwork(f *testing.F) {
	// Seed with a valid serialized network and mutations of it.
	n := NewNetwork(3, 4, 1, 2)
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("garbage"))
	badGate, hugeShape := hostileHeaders(f)
	f.Add(badGate)
	f.Add(hugeShape)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must validate and run.
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("deserializer accepted invalid network: %v", vErr)
		}
		xs := []tensor.Vector{tensor.NewVector(got.Input()), tensor.NewVector(got.Input())}
		if _, rErr := got.RunE(xs, Baseline()); rErr != nil {
			t.Fatalf("accepted network does not run: %v", rErr)
		}
	})
}
