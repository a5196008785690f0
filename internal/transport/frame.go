package transport

import (
	"encoding/binary"
	"fmt"
	"io"

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
// binary codec (wire.RegisterBinary) fails to encode at the caller and never
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

// appendRequestFrame encodes one request frame, including the length prefix.
func appendRequestFrame(dst []byte, id uint64, from, msgType string, payload any) ([]byte, error) {
	e := wire.NewEncoder(append(dst, 0, 0, 0, 0)) // length placeholder
	e.Raw([]byte{frameRequest})
	e.Raw(binary.BigEndian.AppendUint64(nil, id))
	e.String(from)
	e.String(msgType)
	if err := appendPayload(e, payload); err != nil {
		return dst, fmt.Errorf("transport: encode %s request: %w", msgType, err)
	}
	return finishFrame(dst, e.Bytes())
}

// appendResponseFrame encodes one response frame.
func appendResponseFrame(dst []byte, id uint64, msgType string, errMsg string, payload any) ([]byte, error) {
	e := wire.NewEncoder(append(dst, 0, 0, 0, 0))
	e.Raw([]byte{frameResponse})
	e.Raw(binary.BigEndian.AppendUint64(nil, id))
	e.String(msgType)
	e.String(errMsg)
	if err := appendPayload(e, payload); err != nil {
		return dst, fmt.Errorf("transport: encode %s response: %w", msgType, err)
	}
	return finishFrame(dst, e.Bytes())
}

// finishFrame back-fills the length prefix and enforces the frame cap.
func finishFrame(dst, framed []byte) ([]byte, error) {
	body := len(framed) - len(dst) - 4
	if body > DefaultMaxFrame {
		return dst, fmt.Errorf("transport: frame body %d bytes exceeds cap %d", body, DefaultMaxFrame)
	}
	binary.BigEndian.PutUint32(framed[len(dst):], uint32(body))
	return framed, nil
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

// request is a parsed request frame.
type request struct {
	id      uint64
	from    string
	msgType string
	codec   byte
	payload []byte
}

// response is a parsed response frame.
type response struct {
	id      uint64
	msgType string
	errMsg  string
	codec   byte
	payload []byte
}

// readFrame reads one length-prefixed frame body from r, enforcing the cap.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
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

// parseFrame splits a frame body into its typed form: (*request, nil) or
// (nil, *response).
func parseFrame(body []byte) (*request, *response, error) {
	kind := body[0]
	id := binary.BigEndian.Uint64(body[1:frameHeaderLen])
	d := wire.NewDecoder(body[frameHeaderLen:])
	switch kind {
	case frameRequest:
		req := &request{id: id}
		req.from = d.String()
		req.msgType = d.String()
		req.codec, req.payload = finishParse(d)
		if d.Err() != nil {
			return nil, nil, fmt.Errorf("transport: malformed request frame: %w", d.Err())
		}
		return req, nil, nil
	case frameResponse:
		resp := &response{id: id}
		resp.msgType = d.String()
		resp.errMsg = d.String()
		resp.codec, resp.payload = finishParse(d)
		if d.Err() != nil {
			return nil, nil, fmt.Errorf("transport: malformed response frame: %w", d.Err())
		}
		return nil, resp, nil
	default:
		return nil, nil, fmt.Errorf("transport: unknown frame kind %d", kind)
	}
}

// finishParse reads the codec byte and hands back the payload tail.
func finishParse(d *wire.Decoder) (byte, []byte) {
	var codec byte
	if b := d.Raw(1); len(b) == 1 {
		codec = b[0]
	}
	return codec, d.Raw(d.Remaining())
}
