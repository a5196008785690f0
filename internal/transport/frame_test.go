package transport

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/spritedht/sprite/internal/wire"
)

// FuzzFrame feeds parseFrame hostile bodies, which must be refused or parsed
// with the payload the body's own tail, never with a panic; and frames
// encoded from the fuzzed fields, which must parse back to the same ID,
// sender, type, error, codec byte and payload bytes. Its seeds are a request
// and a response, each cut short at every length and with every byte
// flipped, and bodies whose strings claim more bytes than follow.
func FuzzFrame(f *testing.F) {
	req, err := encodeRequest(new(wire.Encoder), 7, "127.0.0.1:4000", "sprite.get_postings", note{Text: "x", Items: []string{"a", "bc"}})
	if err != nil {
		f.Fatal(err)
	}
	resp, err := encodeResponse(new(wire.Encoder), 7, "sprite.get_postings.ok", "refused", nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range [][]byte{req[4:], resp[4:]} {
		for n := range body {
			f.Add(body[:n], uint64(n), "", "", "")
		}
		for i := range body {
			flipped := bytes.Clone(body)
			flipped[i] ^= 0x80
			f.Add(flipped, uint64(i), "a", "b", "c")
		}
	}
	head := req[4 : 4+frameHeaderLen]
	for _, tail := range [][]byte{
		{0x05, 'a', 'b'},                  // sender of 5 bytes, 2 present
		{0x01, 'a', 0x7f, 't', codecNone}, // type of 127 bytes, 2 present
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},       // a length of 2^63 and more
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // a varint that overflows
		{0x00, 0x00}, // no codec byte
	} {
		f.Add(append(bytes.Clone(head), tail...), uint64(1<<63), "127.0.0.1:4000", "chord.next_hop", "")
	}

	f.Fuzz(func(t *testing.T, body []byte, id uint64, from, msgType, errMsg string) {
		table := make(names)
		if got, err := parseFrame(body, table); err == nil {
			if got.kind != frameRequest && got.kind != frameResponse {
				t.Fatalf("accepted a frame of kind %d", got.kind)
			}
			at := len(body) - len(got.payload) - 1
			if at < frameHeaderLen || body[at] != got.codec ||
				len(got.payload) > 0 && &got.payload[len(got.payload)-1] != &body[len(body)-1] {
				t.Fatalf("payload of %d bytes and codec %d are not the tail of a %d-byte body", len(got.payload), got.codec, len(body))
			}
		}

		for _, payload := range []any{nil, note{Text: errMsg, Items: []string{from}}} {
			wantCodec, wantPayload := byte(codecNone), []byte(nil)
			if payload != nil {
				wantCodec = codecBinary
				wantPayload, _ = wire.AppendBinary(nil, payload)
			}
			e := new(wire.Encoder)
			req, err := encodeRequest(e, id, from, msgType, payload)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parseFrame(req[4:], table)
			if err != nil {
				t.Fatalf("own request refused: %v", err)
			}
			if got.kind != frameRequest || got.id != id || got.from != from || got.msgType != msgType ||
				got.codec != wantCodec || !bytes.Equal(got.payload, wantPayload) {
				t.Fatalf("request round trip: got %+v", got)
			}
			resp, err := encodeResponse(e, id, msgType, errMsg, payload)
			if err != nil {
				t.Fatal(err)
			}
			if got, err = parseFrame(resp[4:], table); err != nil {
				t.Fatalf("own response refused: %v", err)
			}
			if got.kind != frameResponse || got.id != id || got.msgType != msgType || got.errMsg != errMsg ||
				got.codec != wantCodec || !bytes.Equal(got.payload, wantPayload) {
				t.Fatalf("response round trip: got %+v", got)
			}
		}
	})
}

// TestNameTableIsCapped: a connection's name table keeps the first maxNames
// names of at most maxNameLen bytes, and hands every name back intact
// whether it kept it or not, so a peer sending ever new names cannot grow it.
func TestNameTableIsCapped(t *testing.T) {
	table := make(names)
	long := bytes.Repeat([]byte{'x'}, maxNameLen+1)
	if got := table.intern(long); got != string(long) || len(table) != 0 {
		t.Fatalf("a %d-byte name: got %q, table holds %d", len(long), got, len(table))
	}
	for i := range 4 * maxNames {
		name := fmt.Sprintf("127.0.0.1:%d", i)
		if got := table.intern([]byte(name)); got != name {
			t.Fatalf("intern(%q) = %q", name, got)
		}
	}
	if len(table) != maxNames {
		t.Fatalf("table holds %d names, want the cap %d", len(table), maxNames)
	}
	if got := testing.AllocsPerRun(10, func() { table.intern([]byte("127.0.0.1:0")) }); got != 0 {
		t.Fatalf("interning a kept name allocates %.0f times", got)
	}
}
