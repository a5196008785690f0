package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// Wire framing. Every frame on a multiplexed connection is:
//
//	+----------------+----------------------------------------------+
//	| len uint32 BE  | body (len bytes)                             |
//	+----------------+----------------------------------------------+
//
//	body (request):   kind=0 | id u64 BE | from str | type str |
//	                  codec u8 | payload...
//	body (response):  kind=1 | id u64 BE | type str | err str |
//	                  codec u8 | payload...
//
// where `str` is a uvarint length followed by that many bytes and the payload
// runs to the end of the body (its length is implied by the frame length).
// What a message costs is not sent: the receiver reads it off the payload, its
// length without the 2-byte kind, which is the wire.Size the sender billed.
// `id` ties a response to the request it answers, which is what lets many
// in-flight RPCs share one socket: responses may come back in any order.
// `codec` is 0 for a nil payload and 1 for one in the wire package's binary
// codec; any other value is refused by the receiver. A payload type with no
// binary codec (wire.Register) fails to encode at the caller and never
// reaches the socket.
const (
	frameRequest  = 0
	frameResponse = 1

	codecNone   = 0 // nil payload
	codecBinary = 1

	// frameHeaderLen is the fixed prefix before the variable fields: the
	// kind byte and the request ID.
	frameHeaderLen = 1 + 8
)

// DefaultMaxFrame bounds a single frame's body. Frames above it are refused
// on both send (error to the caller) and receive (connection closed): a
// length prefix is only a safety feature if the reader refuses to believe
// absurd values before allocating for them.
const DefaultMaxFrame = 64 << 20

// frameEncoders holds the encoders frames are built in, each keeping its
// buffer from frame to frame. A frame may be handed back once
// frameWriter.write returns: by then bufio has copied it or the socket has
// taken it.
var frameEncoders = sync.Pool{New: func() any { return new(wire.Encoder) }}

// maxPooledFrame is the largest buffer handed back to frameEncoders; a larger
// one, a bulk reply's, is left to the collector rather than kept for every
// small frame after it.
const maxPooledFrame = 64 << 10

func getEncoder() *wire.Encoder { return frameEncoders.Get().(*wire.Encoder) }

func putEncoder(e *wire.Encoder) {
	if cap(e.Bytes()) <= maxPooledFrame {
		frameEncoders.Put(e)
	}
}

// encodeRequest encodes one request frame, length prefix included, into e,
// replacing what e held. The frame is e's buffer: it is valid until e is
// used again.
func encodeRequest(e *wire.Encoder, id uint64, from, msgType string, payload any) ([]byte, error) {
	beginFrame(e, frameRequest, id)
	e.String(from)
	e.String(msgType)
	if err := appendPayload(e, payload); err != nil {
		return nil, fmt.Errorf("transport: encode %s request: %w", msgType, err)
	}
	return finishFrame(e.Bytes())
}

// encodeResponse encodes one response frame into e, as encodeRequest does.
func encodeResponse(e *wire.Encoder, id uint64, msgType string, errMsg string, payload any) ([]byte, error) {
	beginFrame(e, frameResponse, id)
	e.String(msgType)
	e.String(errMsg)
	if err := appendPayload(e, payload); err != nil {
		return nil, fmt.Errorf("transport: encode %s response: %w", msgType, err)
	}
	return finishFrame(e.Bytes())
}

// beginFrame empties e and writes a length placeholder, the kind and the ID.
func beginFrame(e *wire.Encoder, kind byte, id uint64) {
	var head [4 + frameHeaderLen]byte
	head[4] = kind
	binary.BigEndian.PutUint64(head[5:], id)
	e.Reset()
	e.Raw(head[:])
}

// finishFrame back-fills the length prefix and enforces the frame cap.
func finishFrame(frame []byte) ([]byte, error) {
	body := len(frame) - 4
	if body > DefaultMaxFrame {
		return nil, fmt.Errorf("transport: frame body %d bytes exceeds cap %d", body, DefaultMaxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(body))
	return frame, nil
}

// appendPayload writes the codec byte and the encoded payload, or fails when
// the payload's type has no binary codec.
func appendPayload(e *wire.Encoder, payload any) error {
	if payload == nil {
		e.Raw([]byte{codecNone})
		return nil
	}
	e.Raw([]byte{codecBinary})
	if !e.Append(payload) {
		return fmt.Errorf("no binary codec for %T", payload)
	}
	return nil
}

// decodeMessage reverses appendPayload given the codec byte and raw bytes:
// a message of type msgType whose Size is the payload's length without its
// 2-byte kind, the wire.Size its sender billed.
func decodeMessage(msgType string, codec byte, data []byte) (simnet.Message, error) {
	msg := simnet.Message{Type: msgType}
	var err error
	switch codec {
	case codecNone:
		if len(data) != 0 {
			err = fmt.Errorf("transport: %d payload bytes on a codec-none frame", len(data))
		}
	case codecBinary:
		msg.Payload, err = wire.DecodeBinary(data)
		msg.Size = len(data) - 2
	default:
		err = fmt.Errorf("transport: unknown payload codec %d", codec)
	}
	return msg, err
}

// frame is one parsed frame body. Its strings come from the reading
// connection's names table, and its payload is a slice of the body, which
// readFrame allocates per frame and never reuses: the payload, and anything
// decoded from it, stays valid for as long as it is referenced.
type frame struct {
	kind    byte
	id      uint64
	from    string // requests only
	msgType string
	errMsg  string // responses only
	codec   byte
	payload []byte
}

// names interns the message types and sender names one connection's reader
// parses, so a name seen before costs no allocation. Only its reader uses
// it. It keeps at most maxNames names of at most maxNameLen bytes each, so
// hostile input cannot grow it without bound: any other name is allocated
// per frame.
type names map[string]string

const (
	maxNames   = 256
	maxNameLen = 64
)

func (n names) intern(b []byte) string {
	if s, ok := n[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(n) < maxNames && len(b) <= maxNameLen {
		n[s] = s
	}
	return s
}

// readFrame reads one length-prefixed frame body from r, enforcing the cap.
func readFrame(r *bufio.Reader, maxFrame int) ([]byte, error) {
	head, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(head)
	r.Discard(4) // Peek has buffered them
	if int(n) > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds cap %d", n, maxFrame)
	}
	if n < frameHeaderLen {
		return nil, fmt.Errorf("transport: frame of %d bytes shorter than header", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// parseFrame splits a frame body into its fields in place, taking names
// from table. A body that is short, of an unknown kind, or whose strings
// overrun it is refused.
func parseFrame(body []byte, table names) (frame, error) {
	if len(body) < frameHeaderLen {
		return frame{}, fmt.Errorf("transport: frame of %d bytes shorter than header", len(body))
	}
	f := frame{kind: body[0], id: binary.BigEndian.Uint64(body[1:frameHeaderLen])}
	if f.kind != frameRequest && f.kind != frameResponse {
		return frame{}, fmt.Errorf("transport: unknown frame kind %d", f.kind)
	}
	first, rest, ok := cutString(body[frameHeaderLen:])
	var second []byte
	if ok {
		second, rest, ok = cutString(rest)
	}
	if !ok || len(rest) == 0 {
		return frame{}, fmt.Errorf("transport: malformed frame of kind %d", f.kind)
	}
	f.codec, f.payload = rest[0], rest[1:]
	if f.kind == frameRequest {
		f.from, f.msgType = table.intern(first), table.intern(second)
	} else {
		f.msgType, f.errMsg = table.intern(first), string(second)
	}
	return f, nil
}

// cutString splits a uvarint-length-prefixed string off the front of b.
func cutString(b []byte) (s, rest []byte, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, false
	}
	return b[k : k+int(n)], b[k+int(n):], true
}
