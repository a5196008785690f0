package sketch

import (
	"bytes"
	"testing"
)

// FuzzSketch feeds arbitrary bytes to the sketch decoder and the serialized
// scorers: unmarshal must either fail cleanly or produce a vector whose
// re-encoding round-trips; CosineBytes must never panic and must stay
// inside its value range whatever the input.
func FuzzSketch(f *testing.F) {
	s, _ := New(Config{Enabled: true, Dims: 16})
	good := s.SketchBytes(map[string]int{"alpha": 3, "beta": 1})
	f.Add(good, good)
	f.Add([]byte{}, []byte{formatV1, 0})
	f.Add([]byte{formatV1, 4, 1, 2, 3, 4}, []byte{formatV1, 200, 0})
	f.Add([]byte{0xff, 0xff, 0xff}, good)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var v Vector
		if err := v.UnmarshalBinary(a); err == nil {
			raw, merr := v.MarshalBinary()
			if merr != nil {
				t.Fatalf("re-marshal of accepted payload failed: %v", merr)
			}
			if !bytes.Equal(raw, a) {
				t.Fatalf("accepted payload is not canonical: % x -> % x", a, raw)
			}
			if _, ok := components(a); !ok {
				t.Fatalf("unmarshal accepted bytes components rejects")
			}
		}
		if c := CosineBytes(a, b); c < -1.0000001 || c > 1.0000001 || c != c {
			t.Fatalf("cosine %v out of range", c)
		}
	})
}
