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
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
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
// value. It must not keep d once it returns: DecodeBinary reuses decoders.
type DecodeFunc func(d *Decoder) any

type binaryCodec struct {
	kind uint16
	typ  reflect.Type
	enc  EncodeFunc
	dec  DecodeFunc
}

// codecTable is the registry. It is never written once published:
// RegisterBinary publishes a new table, so encoding and decoding read it
// without a lock.
type codecTable struct {
	byKind map[uint16]*binaryCodec
	byType map[reflect.Type]*binaryCodec
}

var (
	mu    sync.Mutex // serializes RegisterBinary
	table atomic.Pointer[codecTable]
)

// codecs returns the current registry; before the first registration, the
// empty one.
func codecs() *codecTable {
	if t := table.Load(); t != nil {
		return t
	}
	return &codecTable{}
}

// RegisterBinary installs a binary codec for prototype's concrete type under
// the given kind. Registration normally happens in package init functions;
// duplicate kinds or types panic immediately (a mis-wired codec table must
// never reach the network).
func RegisterBinary(kind uint16, prototype any, enc EncodeFunc, dec DecodeFunc) {
	mu.Lock()
	defer mu.Unlock()
	old := codecs()
	t := reflect.TypeOf(prototype)
	if prev, ok := old.byKind[kind]; ok {
		panic(fmt.Sprintf("wire: binary kind %d already registered for %v", kind, prev.typ))
	}
	if _, ok := old.byType[t]; ok {
		panic(fmt.Sprintf("wire: binary codec already registered for %v", t))
	}
	next := &codecTable{
		byKind: make(map[uint16]*binaryCodec, len(old.byKind)+1),
		byType: make(map[reflect.Type]*binaryCodec, len(old.byType)+1),
	}
	for k, c := range old.byKind {
		next.byKind[k] = c
	}
	for t, c := range old.byType {
		next.byType[t] = c
	}
	c := &binaryCodec{kind: kind, typ: t, enc: enc, dec: dec}
	next.byKind[kind] = c
	next.byType[t] = c
	table.Store(next)
}

// AppendBinary appends the binary encoding of v — a 2-byte kind followed by
// the codec's field stream — to dst and reports whether v's type had a
// registered codec. When it reports false, dst is returned unchanged: the
// value has no wire form.
func AppendBinary(dst []byte, v any) ([]byte, bool) {
	e := &Encoder{b: dst}
	ok := e.Append(v)
	return e.b, ok
}

// counters holds sizing encoders for Size to reuse. Slots, not a sync.Pool:
// under the race detector a pool drops what it is given at random, and Size
// must not allocate there either. Four cover the sizings a few cores run at
// once; a Size that finds every slot empty allocates.
var counters [4]atomic.Pointer[Encoder]

// Size returns what a message carrying v costs (simnet.Message.Size): the
// length of v's encoded field stream, without the 2-byte kind, which is
// framing. A nil payload, or one whose type has no codec, is 0. It runs v's
// encoder in sizing mode, which adds up lengths and writes nothing, so it
// allocates nothing of its own.
func Size(v any) int {
	c := codecOf(v)
	if c == nil {
		return 0
	}
	var e *Encoder
	for i := 0; i < len(counters) && e == nil; i++ {
		e = counters[i].Swap(nil)
	}
	if e == nil {
		e = &Encoder{sizing: true}
	}
	e.n = 0
	c.enc(e, v)
	n := e.n
	for i := 0; i < len(counters); i++ {
		if counters[i].CompareAndSwap(nil, e) {
			break
		}
	}
	return n
}

// codecOf returns v's registered codec, or nil (for a nil v too).
func codecOf(v any) *binaryCodec {
	return codecs().byType[reflect.TypeOf(v)]
}

// DecodeBinary decodes a payload produced by AppendBinary. Unknown kinds and
// malformed field streams return an error; trailing garbage after a complete
// value does too (a frame carries exactly one payload).
func DecodeBinary(data []byte) (any, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: binary payload too short (%d bytes)", len(data))
	}
	kind := binary.BigEndian.Uint16(data)
	c, ok := codecs().byKind[kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown binary kind %d", kind)
	}
	d := decoders.Get().(*Decoder)
	d.b = data[2:]
	v := c.dec(d)
	err, trailing := d.err, len(d.b)-d.off
	*d = Decoder{}
	decoders.Put(d)
	if err != nil {
		return nil, fmt.Errorf("wire: decode kind %d (%v): %w", kind, c.typ, err)
	}
	if trailing != 0 {
		return nil, fmt.Errorf("wire: decode kind %d (%v): %d trailing bytes", kind, c.typ, trailing)
	}
	return v, nil
}

// decoders holds DecodeBinary's decoders, emptied before they are handed
// back. A decoder a codec's function is given would otherwise escape to the
// heap, since that function is called through a value.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// Encoder appends primitive values to a byte slice. The zero value appends
// to a nil slice; use NewEncoder to reuse a buffer. The encoder Size runs a
// codec with is in sizing mode: each primitive adds its encoded length to a
// count and writes nothing.
type Encoder struct {
	b      []byte
	sizing bool
	n      int // bytes counted in sizing mode
}

// NewEncoder returns an encoder appending to dst.
func NewEncoder(dst []byte) *Encoder { return &Encoder{b: dst} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.b }

// Reset empties the buffer and keeps its capacity, so one encoder can build
// message after message without growing a buffer for each.
func (e *Encoder) Reset() { e.b = e.b[:0] }

// Append appends v's full binary encoding (kind prefix included) in place,
// reporting whether v's type had a registered codec; the buffer is unchanged
// when it reports false. This is AppendBinary for callers composing a larger
// frame in one buffer.
func (e *Encoder) Append(v any) bool {
	c := codecOf(v)
	if c == nil {
		return false
	}
	if e.sizing {
		e.n += 2
	} else {
		e.b = binary.BigEndian.AppendUint16(e.b, c.kind)
	}
	c.enc(e, v)
	return true
}

// uvarintLen is the length of v's unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Uint appends v as an unsigned varint.
func (e *Encoder) Uint(v uint64) {
	if e.sizing {
		e.n += uvarintLen(v)
		return
	}
	e.b = binary.AppendUvarint(e.b, v)
}

// Int appends v as a zig-zag varint.
func (e *Encoder) Int(v int64) {
	if e.sizing {
		e.n += uvarintLen(uint64(v<<1) ^ uint64(v>>63))
		return
	}
	e.b = binary.AppendVarint(e.b, v)
}

// Bool appends one byte.
func (e *Encoder) Bool(v bool) {
	switch {
	case e.sizing:
		e.n++
	case v:
		e.b = append(e.b, 1)
	default:
		e.b = append(e.b, 0)
	}
}

// Float appends v as 8 fixed bytes (IEEE 754 bits, big endian).
func (e *Encoder) Float(v float64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.b = append(e.b, s...)
}

// Raw appends b verbatim, no length prefix — for fixed-width fields (ring
// IDs) whose size both ends know.
func (e *Encoder) Raw(b []byte) {
	if e.sizing {
		e.n += len(b)
		return
	}
	e.b = append(e.b, b...)
}

// Blob appends a length-prefixed run of n bytes that write appends to the
// buffer it is given — a value with a binary form of its own, such as a
// postings list, copied once into the frame. In sizing mode write is not
// called. A write that appends other than n bytes is a bug in its codec and
// panics.
func (e *Encoder) Blob(n int, write func([]byte) []byte) {
	e.Uint(uint64(n))
	if e.sizing {
		e.n += n
		return
	}
	start := len(e.b)
	if e.b = write(e.b); len(e.b)-start != n {
		panic(fmt.Sprintf("wire: blob declared %d bytes, wrote %d", n, len(e.b)-start))
	}
}

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
