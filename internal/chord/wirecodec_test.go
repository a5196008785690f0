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
	checkGoldens(t, []goldenCase{
		{"nextHopResp", nextHopResp{Ref: a}, "0002" + "00" + refA},
		{"nextHopResp/done", nextHopResp{Done: true, Ref: a}, "0002" + "01" + refA},
		{"nextHopResp/hint", nextHopResp{Ref: a, Hint: b}, "0002" + "02" + refA + refB},
		{"routed", routed{Key: a.ID, Payload: b}, "0005" + ida + "0004" + refB},
		{"routed/nil", routed{Key: a.ID}, "0005" + ida},
		{"notOwner", notOwner{Key: b.ID}, "0006" + idb},
	})
}

// The wire forms of a lookup hop's request, a stabilization round's state and
// a bare node reference, byte for byte, and their round trip.
func TestRingCodecsGoldenAndRoundTrip(t *testing.T) {
	a := Ref{ID: seqID(0x10), Addr: "peer1"}
	b := Ref{ID: seqID(0x80), Addr: "peer22"}
	c := seqID(0x30)
	ida, idb, idc := hex.EncodeToString(a.ID[:]), hex.EncodeToString(b.ID[:]), hex.EncodeToString(c[:])
	// A reference is its ID, then its address behind the address's length.
	refA, refB := ida+"05"+hex.EncodeToString([]byte("peer1")), idb+"06"+hex.EncodeToString([]byte("peer22"))
	zero := strings.Repeat("00", chordid.Bytes)
	checkGoldens(t, []goldenCase{
		// the key, then count and the excluded IDs.
		{"nextHopReq", nextHopReq{Key: a.ID, Exclude: []chordid.ID{b.ID, c}}, "0001" + ida + "02" + idb + idc},
		{"nextHopReq/none excluded", nextHopReq{Key: a.ID}, "0001" + ida + "00"},
		// the predecessor, then count and the successors.
		{"stateResp", stateResp{Pred: a, Succs: []Ref{b, a}}, "0003" + refA + "02" + refB + refA},
		{"stateResp/empty", stateResp{}, "0003" + zero + "00" + "00"},
		{"Ref", a, "0004" + refA},
		{"Ref/zero", Ref{}, "0004" + zero + "00"},
	})
}

// goldenCase is a payload and its wire form, kind included, in hex.
type goldenCase struct {
	name   string
	value  any
	golden string
}

// checkGoldens encodes each case's value, compares the bytes with its golden
// string and decodes them back to the value.
func checkGoldens(t *testing.T, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
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

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestDecodeAllocations holds what decoding the overlay's payloads allocates
// to ceilings (Go 1.24, linux/amd64): a ring ID is read into the value's own
// array, and an envelope decodes its inner payload where it lies, so only a
// value's strings, slices and interface box allocate. A decoder that starts
// copying fixed-width fields or inner payloads fails here. Under -race,
// sync.Pool drops walkers at random and the reading means nothing.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	a := Ref{ID: seqID(0x10), Addr: "peer1"}
	b := Ref{ID: seqID(0x80), Addr: "peer22"}
	for _, c := range []struct {
		name    string
		value   any
		ceiling float64
	}{
		{"nextHopResp", nextHopResp{Ref: a}, 2},
		{"hinted nextHopResp", nextHopResp{Ref: a, Hint: b}, 3},
		{"nextHopReq with 2 exclusions", nextHopReq{Key: a.ID, Exclude: []chordid.ID{a.ID, b.ID}}, 2},
		{"stateResp with 3 successors", stateResp{Pred: a, Succs: []Ref{b, a, b}}, 6},
		{"routed{Ref}", routed{Key: a.ID, Payload: b}, 3},
	} {
		enc, _ := wire.AppendBinary(nil, c.value)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := wire.DecodeBinary(enc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("decoding %s allocates %.0f times, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
