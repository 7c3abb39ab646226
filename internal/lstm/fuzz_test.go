package lstm

import (
	"bytes"
	"testing"
)

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
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must validate and run.
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("deserializer accepted invalid network: %v", vErr)
		}
	})
}
