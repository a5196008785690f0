package wire

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"
)

// binPayload is a test payload covering every primitive the codec offers.
type binPayload struct {
	Term  string
	Freq  int64
	Count uint64
	Hot   bool
	Score float64
	Query []string
	ID    [4]byte
}

const kindBinPayload = KindTestBase + 7

func init() {
	gob.Register(binPayload{}) // for TestEmptySliceDecodesNilLikeGob's oracle
	RegisterBinary(kindBinPayload, binPayload{},
		func(e *Encoder, v any) {
			p := v.(binPayload)
			e.String(p.Term)
			e.Int(p.Freq)
			e.Uint(p.Count)
			e.Bool(p.Hot)
			e.Float(p.Score)
			e.StringSlice(p.Query)
			e.Raw(p.ID[:])
		},
		func(d *Decoder) any {
			var p binPayload
			p.Term = d.String()
			p.Freq = d.Int()
			p.Count = d.Uint()
			p.Hot = d.Bool()
			p.Score = d.Float()
			p.Query = d.StringSlice()
			copy(p.ID[:], d.Raw(len(p.ID)))
			return p
		})
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []binPayload{
		{},
		{Term: "chord", Freq: -42, Count: 1 << 40, Hot: true, Score: 2.5,
			Query: []string{"peer", "to", "peer"}, ID: [4]byte{1, 2, 3, 4}},
		{Term: strings.Repeat("x", 300), Score: math.Inf(-1)},
	}
	for _, in := range cases {
		data, ok := AppendBinary(nil, in)
		if !ok {
			t.Fatal("binPayload not registered")
		}
		out, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip changed value:\n in: %#v\nout: %#v", in, out)
		}
	}
}

func TestBinaryUnregisteredHasNoEncoding(t *testing.T) {
	type notRegistered struct{ X int }
	dst := []byte{1, 2}
	if out, ok := AppendBinary(dst, notRegistered{1}); ok || !bytes.Equal(out, dst) {
		t.Fatalf("unregistered type encoded: ok %v, % x", ok, out)
	}
	e := NewEncoder(dst)
	if e.Append(notRegistered{1}) || !bytes.Equal(e.Bytes(), dst) {
		t.Fatalf("Encoder.Append of an unregistered type wrote % x", e.Bytes())
	}
}

func TestBinaryDecodeRejectsTruncationAndTrailing(t *testing.T) {
	data, _ := AppendBinary(nil, binPayload{Term: "abcdef", Query: []string{"q1", "q2"}})
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeBinary(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	if _, err := DecodeBinary(append(append([]byte{}, data...), 0xEE)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := DecodeBinary([]byte{0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestBinaryLengthCapped pins the over-allocation guard: a frame declaring a
// huge string or count must fail before sizing an allocation from it.
func TestBinaryLengthCapped(t *testing.T) {
	var e Encoder
	e.Uint(1 << 40) // declared string length: 1 TiB
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("huge declared string length accepted (got %d bytes, err %v)", len(s), d.Err())
	}

	var e2 Encoder
	e2.Uint(math.MaxUint64) // declared element count
	d2 := NewDecoder(e2.Bytes())
	if n := d2.Count(8); n != 0 || d2.Err() == nil {
		t.Fatalf("huge declared count accepted: %d, err %v", n, d2.Err())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x03, 'a'}) // declares 3 bytes, has 1
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("truncated string did not error")
	}
	first := d.Err()
	if v := d.Uint(); v != 0 {
		t.Fatalf("read after error returned %d", v)
	}
	if d.Err() != first {
		t.Fatal("sticky error was replaced")
	}
}

func TestEmptySliceDecodesNilLikeGob(t *testing.T) {
	in := binPayload{Query: []string{}}
	data, _ := AppendBinary(nil, in)
	out, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	// Gob decodes an empty slice as nil; the binary codec must agree.
	var buf bytes.Buffer
	var iface any = in
	if err := gob.NewEncoder(&buf).Encode(&iface); err != nil {
		t.Fatal(err)
	}
	var gout any
	if err := gob.NewDecoder(&buf).Decode(&gout); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, gout) {
		t.Fatalf("codecs disagree on empty slice:\nbinary: %#v\n   gob: %#v", out, gout)
	}
}

func TestBinaryPrototypesContainsRegistered(t *testing.T) {
	found := false
	for _, p := range BinaryPrototypes() {
		if _, ok := p.(binPayload); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("BinaryPrototypes missing binPayload")
	}
}

func TestRegisterBinaryCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate kind registration did not panic")
		}
	}()
	RegisterBinary(kindBinPayload, struct{ Y int }{}, nil, nil)
}
