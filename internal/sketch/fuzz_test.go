package sketch

import (
	"bytes"
	"testing"

	"github.com/spritedht/sprite/internal/wire"
)

// FuzzSketch feeds arbitrary bytes to the sketch decoder and the serialized
// scorers: unmarshal must either fail cleanly or produce a vector whose
// re-encoding round-trips; CosineBytes/HammingBytes must never panic and
// must stay inside their value ranges whatever the input.
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
			if Valid(a) != true {
				t.Fatalf("unmarshal accepted bytes Valid rejects")
			}
		}
		if c := CosineBytes(a, b); c < -1.0000001 || c > 1.0000001 || c != c {
			t.Fatalf("cosine %v out of range", c)
		}
		if h := HammingBytes(a, b); h < 0 || h > MaxDims+1 {
			t.Fatalf("hamming %v out of range", h)
		}
	})
}

// FuzzSketchCodec drives the wire codec (AppendBinary/DecodeBinary) with
// generated vectors, which must round-trip exactly.
func FuzzSketchCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 127, 255, 1})
	f.Add(bytes.Repeat([]byte{0x80}, 300))
	f.Fuzz(func(t *testing.T, comp []byte) {
		if len(comp) > MaxDims {
			comp = comp[:MaxDims]
		}
		var v Vector
		for _, b := range comp {
			v = append(v, int8(b))
		}

		enc, ok := wire.AppendBinary(nil, v)
		if !ok {
			t.Fatalf("Vector has no binary codec registered")
		}
		got, err := wire.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		bv, ok := got.(Vector)
		if !ok {
			t.Fatalf("binary decode returned %T", got)
		}

		if !bytes.Equal(toBytes(bv), toBytes(v)) {
			t.Fatalf("binary codec changed the vector")
		}
	})
}
