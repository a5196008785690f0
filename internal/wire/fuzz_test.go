package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzPayload mirrors the shape of the protocol payloads that cross the
// transport's frames (strings, integers, nested structs, slices), so the
// round trip exercises the same encoder paths without depending on the
// unexported message types of internal/core and internal/chord.
type fuzzPayload struct {
	Term  string
	Doc   string
	Freq  int64
	Hops  int
	Addrs []string
	Inner fuzzInner
}

type fuzzInner struct {
	Key   string
	Score float64
}

const kindFuzzPayload = KindTestBase + 100

func init() {
	RegisterBinary(kindFuzzPayload, fuzzPayload{},
		func(e *Encoder, v any) {
			p := v.(fuzzPayload)
			e.String(p.Term)
			e.String(p.Doc)
			e.Int(p.Freq)
			e.Int(int64(p.Hops))
			e.StringSlice(p.Addrs)
			e.String(p.Inner.Key)
			e.Float(p.Inner.Score)
		},
		func(d *Decoder) any {
			var p fuzzPayload
			p.Term = d.String()
			p.Doc = d.String()
			p.Freq = d.Int()
			p.Hops = int(d.Int())
			p.Addrs = d.StringSlice()
			p.Inner.Key = d.String()
			p.Inner.Score = d.Float()
			return p
		})
}

// FuzzCodec fuzzes the wire codec the way the transport uses it: the payload
// travels as an interface value, so encoding goes through the registry and
// decoding must return the original concrete value bit-for-bit. Truncations
// and the raw tail bytes are also fed to the decoder — corrupted frames must
// fail with an error, never a panic.
func FuzzCodec(f *testing.F) {
	f.Add("w03", "doc01", int64(7), 3, "c0,c1", 0.5, []byte{})
	f.Add("", "", int64(0), 0, "", 0.0, []byte{0xff, 0x00})
	f.Add("日本語", "doc\x00", int64(-1), 1<<20, "a", -1.5, []byte("garbage"))
	f.Fuzz(func(t *testing.T, term, doc string, freq int64, hops int, addrCSV string, score float64, raw []byte) {
		if score != score {
			score = 0 // NaN round-trips correctly but breaks DeepEqual
		}
		var addrs []string // nil when empty, as the decoder returns it
		for _, a := range bytes.Split([]byte(addrCSV), []byte{','}) {
			if len(a) > 0 {
				addrs = append(addrs, string(a))
			}
		}
		var in any = fuzzPayload{
			Term: term, Doc: doc, Freq: freq, Hops: hops, Addrs: addrs,
			Inner: fuzzInner{Key: term, Score: score},
		}
		bin, ok := AppendBinary(nil, in)
		if !ok {
			t.Fatal("binary codec not registered for fuzzPayload")
		}
		out, err := DecodeBinary(bin)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip changed the payload:\n in: %#v\nout: %#v", in, out)
		}
		// Truncations and raw garbage must fail cleanly, never panic or
		// size an allocation from an unvalidated declared length.
		for n := 0; n < len(bin); n++ {
			DecodeBinary(bin[:n])
		}
		DecodeBinary(raw)
	})
}
