package chord

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/wire"
)

func seqID(first byte) chordid.ID {
	var id chordid.ID
	for i := range id {
		id[i] = first + byte(i)
	}
	return id
}

// The wire forms of the three payloads owner hints touch, byte for byte, and
// their round trip. An answer without a hint must keep the encoding it had
// before hints existed.
func TestHintCodecsGoldenAndRoundTrip(t *testing.T) {
	a := Ref{ID: seqID(0x10), Addr: "peer1"}
	b := Ref{ID: seqID(0x80), Addr: "peer22"}
	ida, idb := hex.EncodeToString(a.ID[:]), hex.EncodeToString(b.ID[:])
	refA, refB := ida+"05"+hex.EncodeToString([]byte("peer1")), idb+"06"+hex.EncodeToString([]byte("peer22"))
	for _, c := range []struct {
		name   string
		value  any
		golden string
	}{
		{"nextHopResp", nextHopResp{Ref: a}, "0002" + "00" + refA},
		{"nextHopResp/done", nextHopResp{Done: true, Ref: a}, "0002" + "01" + refA},
		{"nextHopResp/hint", nextHopResp{Ref: a, Hint: b}, "0002" + "02" + refA + refB},
		{"routed", routed{Key: a.ID, Payload: b}, "0005" + ida + "0004" + refB},
		{"routed/nil", routed{Key: a.ID}, "0005" + ida},
		{"notOwner", notOwner{Key: b.ID}, "0006" + idb},
	} {
		enc, ok := wire.AppendBinary(nil, c.value)
		if !ok {
			t.Fatalf("%s: no binary codec", c.name)
		}
		if got := hex.EncodeToString(enc); got != c.golden {
			t.Fatalf("%s encodes as\n  %s\nwant\n  %s", c.name, got, c.golden)
		}
		dec, err := wire.DecodeBinary(enc)
		if err != nil || !reflect.DeepEqual(dec, c.value) {
			t.Fatalf("%s: binary round trip = %#v, %v", c.name, dec, err)
		}
	}
}

// Hostile envelopes fail the decode with an error; none panics or recurses.
func TestRoutedDecoderRejectsHostileFrames(t *testing.T) {
	key := seqID(1)
	inner, _ := wire.AppendBinary(nil, Ref{ID: seqID(2), Addr: "peer3"})
	header := append([]byte{0, byte(kindRouted)}, key[:]...)
	envelope := func(tail []byte) []byte {
		return append(append([]byte(nil), header...), tail...)
	}
	// An envelope nested a hundred thousand deep: refused at the first level.
	deep := append(bytes.Repeat(header, 100_000), inner...)
	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"nested", envelope(envelope(inner)), "inside a routed envelope"},
		{"deeply nested", deep, "inside a routed envelope"},
		{"unknown inner kind", envelope([]byte{0xee, 0xee, 1, 2, 3}), "unknown binary kind"},
		{"unencodable payload marker", envelope([]byte{0, 0}), "unknown binary kind"},
		{"truncated inner value", envelope(inner[:len(inner)-3]), "exceeds"},
		{"one inner byte", envelope(inner[:1]), "too short"},
		{"trailing bytes", envelope(append(append([]byte(nil), inner...), 0xff)), "trailing"},
		{"truncated key", envelope(nil)[:10], "exceeds"},
	} {
		v, err := wire.DecodeBinary(c.frame)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: decoded to %#v, error %v; want an error mentioning %q", c.name, v, err, c.want)
		}
	}
	if _, err := wire.DecodeBinary([]byte{0, 2, 4}); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("nextHopResp with unknown flag bits: %v", err)
	}
	// A payload no binary codec knows cannot ride in an envelope across a
	// socket: the sender marks it, the receiver refuses the frame.
	enc, _ := wire.AppendBinary(nil, routed{Key: key, Payload: struct{ X int }{1}})
	if _, err := wire.DecodeBinary(enc); err == nil {
		t.Fatal("envelope around an unregistered payload type decoded")
	}
}
