// Serialization of sketches.
//
// The serialized sketch (formatV1: a format byte, a uvarint width, then the
// int8 components) is the form that actually travels and is scored: postings
// carry it verbatim inside index.Encoded blocks, the postings cache accounts
// its bytes, and CosineBytes ranks candidates straight off the encoded
// payload. Decoding follows the wire package's safety discipline —
// every declared length is validated against the bytes remaining before any
// allocation is sized from it, and malformed input yields an error (or a
// zero score), never a panic.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MarshalBinary encodes the vector in formatV1.
func (v Vector) MarshalBinary() ([]byte, error) {
	if len(v) > MaxDims {
		return nil, fmt.Errorf("sketch: %d dims exceeds max %d", len(v), MaxDims)
	}
	out := make([]byte, 0, 1+binary.MaxVarintLen16+len(v))
	out = append(out, formatV1)
	out = binary.AppendUvarint(out, uint64(len(v)))
	for _, q := range v {
		out = append(out, byte(q))
	}
	return out, nil
}

// UnmarshalBinary decodes a formatV1 payload, rejecting malformed input
// with an error and leaving v empty. It never panics on arbitrary bytes
// (FuzzSketch pins this).
func (v *Vector) UnmarshalBinary(data []byte) error {
	*v = nil
	if len(data) == 0 {
		return fmt.Errorf("sketch: empty payload")
	}
	if data[0] != formatV1 {
		return fmt.Errorf("sketch: unknown format byte 0x%02x", data[0])
	}
	dims, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return fmt.Errorf("sketch: truncated dims")
	}
	if len(binary.AppendUvarint(nil, dims)) != k {
		return fmt.Errorf("sketch: non-canonical dims encoding")
	}
	off := 1 + k
	if dims > MaxDims {
		return fmt.Errorf("sketch: %d dims exceeds max %d", dims, MaxDims)
	}
	if uint64(len(data)-off) != dims {
		return fmt.Errorf("sketch: %d dims but %d component bytes", dims, len(data)-off)
	}
	if dims == 0 {
		return nil // the zero-width vector decodes to nil, mirroring encode
	}
	q := make(Vector, dims)
	for i := range q {
		q[i] = int8(data[off+i])
	}
	*v = q
	return nil
}

// components returns the int8 payload of a serialized sketch without
// allocating, or ok=false when the bytes are not a well-formed formatV1
// vector.
func components(b []byte) (comp []byte, ok bool) {
	if len(b) == 0 || b[0] != formatV1 {
		return nil, false
	}
	dims, k := binary.Uvarint(b[1:])
	if k <= 0 || dims > MaxDims {
		return nil, false
	}
	off := 1 + k
	if uint64(len(b)-off) != dims {
		return nil, false
	}
	return b[off:], true
}

// CosineBytes scores two serialized sketches without decoding them into
// vectors: integer dot and norms over the raw component bytes, one float
// division at the end. Malformed input or mismatched widths score 0 — a
// candidate with a garbage sketch ranks last, it cannot fail the query.
func CosineBytes(a, b []byte) float64 {
	ca, ok := components(a)
	if !ok {
		return 0
	}
	cb, ok := components(b)
	if !ok || len(ca) != len(cb) || len(ca) == 0 {
		return 0
	}
	var dot, na, nb int64
	for i := range ca {
		x, y := int64(int8(ca[i])), int64(int8(cb[i]))
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(dot) / math.Sqrt(float64(na)*float64(nb))
}
