// Package wire is the codec for every protocol payload that crosses a
// socket: a hand-rolled binary encoding per registered type.
//
// Each payload type is assigned a stable 16-bit kind and a pair of
// hand-written encode/decode functions over varint/length-prefixed
// primitives — no type descriptors on the wire, no reflection per value. A
// type that never registered a codec cannot be sent: AppendBinary reports
// false and the transport fails the call with an encode error.
//
// Safety discipline: decoding works over a single []byte with a sticky
// error, and every declared length (strings, byte runs, element counts) is
// validated against the bytes actually remaining before any allocation is
// sized from it. A hostile or truncated frame can therefore fail the decode
// but can neither panic nor balloon memory — the property FuzzCodec and
// FuzzBinaryProtocol lean on.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// Kind ranges, one block per registering package, so the numbering is stable
// regardless of package-init order. Both ends of a connection run the same
// binary in this repository's deployments; the explicit constants keep the
// assignment auditable (and collision-checked at registration).
const (
	// KindChordBase .. KindChordBase+15 are reserved for internal/chord.
	KindChordBase uint16 = 1
	// KindCoreBase .. KindCoreBase+31 are reserved for internal/core.
	KindCoreBase uint16 = 16
	// KindSketchBase .. KindSketchBase+7 are reserved for internal/sketch.
	KindSketchBase uint16 = 48
	// KindTestBase and up are free for tests.
	KindTestBase uint16 = 4096
)

// EncodeFunc appends v's binary form to the encoder. It must handle exactly
// the concrete type it was registered for.
type EncodeFunc func(e *Encoder, v any)

// DecodeFunc reads one value back. On malformed input it should rely on the
// decoder's sticky error (the caller checks d.Err) and may return a partial
// value.
type DecodeFunc func(d *Decoder) any

type binaryCodec struct {
	kind uint16
	typ  reflect.Type
	enc  EncodeFunc
	dec  DecodeFunc
}

var (
	mu        sync.Mutex
	binByKind = make(map[uint16]*binaryCodec)
	binByType = make(map[reflect.Type]*binaryCodec)
)

// RegisterBinary installs a binary codec for prototype's concrete type under
// the given kind. Registration normally happens in package init functions;
// duplicate kinds or types panic immediately (a mis-wired codec table must
// never reach the network).
func RegisterBinary(kind uint16, prototype any, enc EncodeFunc, dec DecodeFunc) {
	mu.Lock()
	defer mu.Unlock()
	t := reflect.TypeOf(prototype)
	if prev, ok := binByKind[kind]; ok {
		panic(fmt.Sprintf("wire: binary kind %d already registered for %v", kind, prev.typ))
	}
	if _, ok := binByType[t]; ok {
		panic(fmt.Sprintf("wire: binary codec already registered for %v", t))
	}
	c := &binaryCodec{kind: kind, typ: t, enc: enc, dec: dec}
	binByKind[kind] = c
	binByType[t] = c
}

// BinaryPrototypes returns one zero prototype per registered binary codec,
// ordered by kind. Tests use it to round-trip every protocol payload
// generically.
func BinaryPrototypes() []any {
	mu.Lock()
	defer mu.Unlock()
	kinds := make([]int, 0, len(binByKind))
	for k := range binByKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	out := make([]any, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, reflect.New(binByKind[uint16(k)].typ).Elem().Interface())
	}
	return out
}

// AppendBinary appends the binary encoding of v — a 2-byte kind followed by
// the codec's field stream — to dst and reports whether v's type had a
// registered codec. When it reports false, dst is returned unchanged: the
// value has no wire form.
func AppendBinary(dst []byte, v any) ([]byte, bool) {
	mu.Lock()
	c, ok := binByType[reflect.TypeOf(v)]
	mu.Unlock()
	if !ok {
		return dst, false
	}
	e := Encoder{b: dst}
	e.b = binary.BigEndian.AppendUint16(e.b, c.kind)
	c.enc(&e, v)
	return e.b, true
}

// DecodeBinary decodes a payload produced by AppendBinary. Unknown kinds and
// malformed field streams return an error; trailing garbage after a complete
// value does too (a frame carries exactly one payload).
func DecodeBinary(data []byte) (any, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: binary payload too short (%d bytes)", len(data))
	}
	kind := binary.BigEndian.Uint16(data)
	mu.Lock()
	c, ok := binByKind[kind]
	mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("wire: unknown binary kind %d", kind)
	}
	d := Decoder{b: data[2:]}
	v := c.dec(&d)
	if d.err != nil {
		return nil, fmt.Errorf("wire: decode kind %d (%v): %w", kind, c.typ, d.err)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wire: decode kind %d (%v): %d trailing bytes", kind, c.typ, len(d.b)-d.off)
	}
	return v, nil
}

// Encoder appends primitive values to a byte slice. The zero value appends
// to a nil slice; use NewEncoder to reuse a buffer.
type Encoder struct {
	b []byte
}

// NewEncoder returns an encoder appending to dst.
func NewEncoder(dst []byte) *Encoder { return &Encoder{b: dst} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.b }

// Append appends v's full binary encoding (kind prefix included) in place,
// reporting whether v's type had a registered codec; the buffer is unchanged
// when it reports false. This is AppendBinary for callers composing a larger
// frame in one buffer.
func (e *Encoder) Append(v any) bool {
	b, ok := AppendBinary(e.b, v)
	if ok {
		e.b = b
	}
	return ok
}

// Uint appends v as an unsigned varint.
func (e *Encoder) Uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Int appends v as a zig-zag varint.
func (e *Encoder) Int(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Bool appends one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Float appends v as 8 fixed bytes (IEEE 754 bits, big endian).
func (e *Encoder) Float(v float64) {
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Raw appends b verbatim, no length prefix — for fixed-width fields (ring
// IDs) whose size both ends know.
func (e *Encoder) Raw(b []byte) { e.b = append(e.b, b...) }

// StringSlice appends a count-prefixed string slice.
func (e *Encoder) StringSlice(s []string) {
	e.Uint(uint64(len(s)))
	for _, v := range s {
		e.String(v)
	}
}

// Decoder reads primitive values from a byte slice with a sticky error: the
// first malformed field poisons the decoder and every later read returns a
// zero value. Declared lengths and counts are capped by the bytes remaining,
// so no read allocates more than the input could possibly justify.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{b: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's sticky error if none is set yet. Codecs
// whose payloads carry structure beyond the primitive layer (e.g. embedded
// encoded blocks) use it to poison the decode when their own validation
// rejects the bytes.
func (d *Decoder) Fail(err error) {
	if err != nil && d.err == nil {
		d.err = err
	}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Uint reads an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zig-zag varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Bool reads one byte; any nonzero value is true.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	v := d.b[d.off] != 0
	d.off++
	return v
}

// Float reads 8 fixed bytes.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string. The declared length is validated
// against the remaining input before the string is materialized.
func (d *Decoder) String() string {
	n := d.Uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("declared string length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Raw reads n verbatim bytes into a fresh slice.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("declared raw length %d exceeds %d remaining bytes", n, d.Remaining())
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += n
	return out
}

// Count reads an element count whose elements each occupy at least minBytes
// on the wire, rejecting counts the remaining input cannot hold. This is the
// over-allocation guard for slices and maps: a frame claiming a billion
// elements fails here instead of sizing a billion-element allocation.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(d.Remaining()/minBytes) {
		d.fail("declared count %d exceeds capacity of %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// StringSlice reads a count-prefixed string slice. A zero count decodes as a
// nil slice, as gob decodes one (TestEmptySliceDecodesNilLikeGob).
func (d *Decoder) StringSlice() []string {
	n := d.Count(1)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}
