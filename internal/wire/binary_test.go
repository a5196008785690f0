package wire

import (
	"bytes"
	"encoding/binary"
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
	Blob  []byte
}

const kindBinPayload = KindTestBase + 7

func init() {
	gob.Register(binPayload{}) // for TestEmptySliceDecodesNilLikeGob's oracle
	Register(kindBinPayload, binPayload{}, func(w *Walker, v any) any {
		p, _ := v.(binPayload)
		w.String(&p.Term)
		w.Int(&p.Freq)
		w.Uint(&p.Count)
		w.Bool(&p.Hot)
		walkFloat(w, &p.Score)
		List(w, &p.Query, 1, (*Walker).String)
		w.Fixed(p.ID[:])
		blob := w.Blob(len(p.Blob), func(b []byte) []byte { return append(b, p.Blob...) })
		if w.Decoding() {
			p.Blob = blob
		}
		return Decoded(w, p)
	})
}

// walkFloat walks a float as its IEEE 754 bits in a varint: the test payloads
// carry floats, and no protocol payload does.
func walkFloat(w *Walker, f *float64) {
	bits := math.Float64bits(*f)
	if w.Uint(&bits); w.Decoding() {
		*f = math.Float64frombits(bits)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []binPayload{
		{},
		{Term: "chord", Freq: -42, Count: 1 << 40, Hot: true, Score: 2.5,
			Query: []string{"peer", "to", "peer"}, ID: [4]byte{1, 2, 3, 4}},
		{Term: strings.Repeat("x", 300), Score: math.Inf(-1)},
		{Blob: []byte("block bytes"), Freq: math.MinInt64, Count: math.MaxUint64},
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

// Size is the encoded length without the 2-byte kind, 0 for a nil payload or
// one without a codec, and allocates nothing: it runs on every message. The
// payloads reach every primitive at each of its lengths — varints of one and
// several bytes, negative ones, floats, bools, fixed-width and
// length-prefixed runs, empty strings.
func TestSizeIsEncodedLength(t *testing.T) {
	type notRegistered struct{ X int }
	for _, v := range []any{
		binPayload{},
		binPayload{Term: "chord", Query: []string{"peer", "to", "peer"}},
		binPayload{Term: strings.Repeat("x", 300)},
		binPayload{Term: "", Freq: -1, Count: 300, Hot: true, Score: -2.5,
			Query: []string{"", "x", ""}, ID: [4]byte{0xff, 0, 1, 2}, Blob: []byte{0}},
		binPayload{Freq: math.MinInt64, Count: math.MaxUint64, Score: math.NaN(),
			Blob: []byte(strings.Repeat("b", 200))},
		binPayload{Freq: math.MaxInt64, Count: 1 << 63, Query: []string{strings.Repeat("q", 128)}},
		nil,
		notRegistered{1},
	} {
		want := 0
		if enc, ok := AppendBinary(nil, v); ok {
			want = len(enc) - 2
		}
		if got := Size(v); got != want {
			t.Fatalf("Size(%#v) = %d, want %d", v, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { Size(v) }); allocs != 0 {
			t.Fatalf("Size(%#v) allocates %v times", v, allocs)
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
	for _, c := range []struct {
		what      string
		kind      uint16
		prototype any
	}{
		{"duplicate kind", kindBinPayload, struct{ Y int }{}},
		{"duplicate type", KindTestBase + 99, binPayload{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s registration did not panic", c.what)
				}
			}()
			Register(c.kind, c.prototype, nil)
		}()
	}
	if _, err := DecodeBinary(binary.BigEndian.AppendUint16(nil, KindTestBase+99)); err == nil {
		t.Fatal("a refused registration left its kind in the table")
	}
}

// A blob whose writer appends other than it declared would desynchronize
// every later field: it panics instead.
func TestBlobLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("blob writing 3 bytes of a declared 2 did not panic")
		}
	}()
	w := NewEncoder(nil).Walker()
	w.Blob(2, func(b []byte) []byte { return append(b, 1, 2, 3) })
}
