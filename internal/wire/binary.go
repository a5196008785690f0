// Package wire is the codec for every protocol payload that crosses a
// socket: a hand-rolled binary encoding per registered type.
//
// Each payload type is assigned a stable 16-bit kind and one walk function
// that visits its fields in wire order through a Walker, over
// varint/length-prefixed primitives — no type descriptors on the wire, no
// reflection per value. The same walk encodes a value (AppendBinary),
// decodes one (DecodeBinary) and sizes one (Size), so a payload's fields are
// written once and its size is its encoding's length by construction. A
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
	"bytes"
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
	// KindTestBase and up are free for tests.
	KindTestBase uint16 = 4096
)

// WalkFunc visits one payload's fields in wire order. Encoding or sizing, v
// is the value and the walk returns nil; decoding, v is nil and the walk
// returns the value it read (Decoded). It must handle exactly the concrete
// type it was registered for: it copies v into a variable of that type
// (r, _ := v.(T)), walks pointers to r's fields with static calls, and boxes
// r only when decoding, so sizing allocates nothing. On malformed input it
// relies on the decoder's sticky error (DecodeBinary checks it) and may
// return a partial value. It must not keep w once it returns: walkers are
// reused.
type WalkFunc func(w *Walker, v any) any

// EncodeFunc and DecodeFunc are the two halves of a codec registered with
// RegisterBinary.
type (
	EncodeFunc func(e *Encoder, v any)
	DecodeFunc func(d *Decoder) any
)

type binaryCodec struct {
	kind uint16
	typ  reflect.Type
	walk WalkFunc
}

// codecTable is the registry. It is never written once published: Register
// publishes a new table, so encoding and decoding read it without a lock.
type codecTable struct {
	byKind map[uint16]*binaryCodec
	byType map[reflect.Type]*binaryCodec
}

var (
	mu    sync.Mutex // serializes Register
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

// Register installs walk as the codec of prototype's concrete type under the
// given kind. Registration normally happens in package init functions;
// duplicate kinds or types panic immediately (a mis-wired codec table must
// never reach the network).
func Register(kind uint16, prototype any, walk WalkFunc) {
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
	c := &binaryCodec{kind: kind, typ: t, walk: walk}
	next.byKind[kind] = c
	next.byType[t] = c
	table.Store(next)
}

// RegisterBinary registers a codec written as an encoder and a decoder, for
// a caller that has no walk. It sizes a value by encoding it into a scratch
// buffer.
func RegisterBinary(kind uint16, prototype any, enc EncodeFunc, dec DecodeFunc) {
	Register(kind, prototype, func(w *Walker, v any) any {
		switch {
		case w.d != nil:
			return dec(w.d)
		case w.e != nil:
			enc(w.e, v)
		default:
			var e Encoder
			enc(&e, v)
			w.n += len(e.b)
		}
		return nil
	})
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

// counters holds sizing walkers for Size to reuse. Slots, not a sync.Pool:
// under the race detector a pool drops what it is given at random, and Size
// must not allocate there either. Four cover the sizings a few cores run at
// once; a Size that finds every slot empty allocates.
var counters [4]atomic.Pointer[Walker]

// Size returns what a message carrying v costs (simnet.Message.Size): the
// length of v's encoded field stream, without the 2-byte kind, which is
// framing. A nil payload, or one whose type has no codec, is 0. It runs v's
// walk in the sizing direction, which adds up lengths and writes nothing, so
// it allocates nothing of its own.
func Size(v any) int {
	c := codecOf(v)
	if c == nil {
		return 0
	}
	var w *Walker
	for i := 0; i < len(counters) && w == nil; i++ {
		w = counters[i].Swap(nil)
	}
	if w == nil {
		w = new(Walker)
	}
	c.walk(w, v)
	n := w.n
	w.n = 0
	for i := 0; i < len(counters); i++ {
		if counters[i].CompareAndSwap(nil, w) {
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
	w := walkers.Get().(*Walker)
	w.dec = Decoder{b: data[2:]}
	w.d = &w.dec
	v := c.walk(w, nil)
	err, trailing := w.dec.err, w.dec.Remaining()
	*w = Walker{}
	walkers.Put(w)
	if err != nil {
		return nil, fmt.Errorf("wire: decode kind %d (%v): %w", kind, c.typ, err)
	}
	if trailing != 0 {
		return nil, fmt.Errorf("wire: decode kind %d (%v): %d trailing bytes", kind, c.typ, trailing)
	}
	return v, nil
}

// walkers holds the walkers DecodeBinary and Encoder.Append run codecs with,
// emptied before they are handed back. A walker a codec is given would
// otherwise escape to the heap, since the codec is called through a value.
var walkers = sync.Pool{New: func() any { return new(Walker) }}

// Walker runs a payload's walk in one of three directions. Encoding, it
// appends each field to an Encoder; decoding, it reads each field from a
// Decoder, whose sticky error poisons every later read; sizing (neither), it
// adds up the lengths encoding would write. Its methods take pointers to
// fields: encoding and sizing only read them, decoding only writes them, so
// a walk may be run over a value other goroutines read.
type Walker struct {
	e   *Encoder // encoding
	d   *Decoder // decoding
	n   int      // sizing: bytes counted
	dec Decoder  // what d points at when DecodeBinary runs the walk
}

// Walker returns a walker that encodes into e, for a writer that mixes a
// payload's walk into an encoding of its own.
func (e *Encoder) Walker() *Walker { return &Walker{e: e} }

// Walker returns a walker that decodes from d, sharing d's position and
// sticky error.
func (d *Decoder) Walker() *Walker { return &Walker{d: d} }

// Decoding reports whether w reads the fields it is given, rather than
// writing or counting them.
func (w *Walker) Decoding() bool { return w.d != nil }

// Fail records err as the decode's sticky error if none is set yet; walks
// whose payloads carry structure beyond the primitive layer (flag words,
// embedded encoded blocks) use it to poison the decode when their own
// validation rejects the bytes. Encoding and sizing, it does nothing.
func (w *Walker) Fail(err error) {
	if w.d != nil {
		w.d.Fail(err)
	}
}

// uvarintLen is the length of v's unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Uint walks an unsigned varint.
func (w *Walker) Uint(v *uint64) {
	switch {
	case w.d != nil:
		*v = w.d.Uint()
	case w.e != nil:
		w.e.Uint(*v)
	default:
		w.n += uvarintLen(*v)
	}
}

// Int walks a zig-zag varint.
func (w *Walker) Int(v *int64) {
	switch {
	case w.d != nil:
		*v = w.d.Int()
	case w.e != nil:
		w.e.Int(*v)
	default:
		w.n += uvarintLen(uint64(*v<<1) ^ uint64(*v>>63))
	}
}

// Bool walks one byte; decoding, any nonzero value is true.
func (w *Walker) Bool(v *bool) {
	switch {
	case w.d != nil:
		*v = w.d.Bool()
	case w.e != nil:
		w.e.Bool(*v)
	default:
		w.n++
	}
}

// String walks a length-prefixed string.
func (w *Walker) String(v *string) {
	switch {
	case w.d != nil:
		*v = w.d.String()
	case w.e != nil:
		w.e.String(*v)
	default:
		w.n += uvarintLen(uint64(len(*v))) + len(*v)
	}
}

// Fixed walks len(b) verbatim bytes with no length prefix — a fixed-width
// field (a ring ID) whose size both ends know. Decoding fills b itself, so
// a value's own array is read in place.
func (w *Walker) Fixed(b []byte) {
	switch {
	case w.d != nil:
		copy(b, w.d.take(uint64(len(b)), "fixed-width field"))
	case w.e != nil:
		w.e.Raw(b)
	default:
		w.n += len(b)
	}
}

// Blob walks a length-prefixed run of n bytes that write appends to the
// buffer it is given — a value with a binary form of its own, such as a
// postings list, copied once into the frame. Sizing counts the run and does
// not call write. Decoding returns a copy of the run for the caller to parse
// (nil when it is empty or the decode has failed), and n and write go
// unused. A write that appends other than n bytes is a bug in its walk and
// panics.
func (w *Walker) Blob(n int, write func([]byte) []byte) []byte {
	switch {
	case w.d != nil:
		if raw := w.d.take(w.d.Uint(), "blob"); len(raw) > 0 {
			return bytes.Clone(raw)
		}
	case w.e != nil:
		w.e.Uint(uint64(n))
		start := len(w.e.b)
		if w.e.b = write(w.e.b); len(w.e.b)-start != n {
			panic(fmt.Sprintf("wire: blob declared %d bytes, wrote %d", n, len(w.e.b)-start))
		}
	default:
		w.n += uvarintLen(uint64(n)) + n
	}
	return nil
}

// Append walks v's full binary encoding, kind prefix included, where an
// envelope carries another payload. It reports whether v's type had a
// registered codec, writing nothing when it had not. Decoding, it does
// nothing and reports false: an envelope's walk reads its payload with Rest
// and DecodeBinary.
func (w *Walker) Append(v any) bool {
	c := codecOf(v)
	if c == nil || w.d != nil {
		return false
	}
	if w.e != nil {
		w.e.b = binary.BigEndian.AppendUint16(w.e.b, c.kind)
	} else {
		w.n += 2
	}
	c.walk(w, v)
	return true
}

// Rest consumes and returns the unread input, in place: an envelope's
// payload, which runs to the end of the value. It is nil unless decoding,
// and once the decode has failed.
func (w *Walker) Rest() []byte {
	if w.d == nil {
		return nil
	}
	return w.d.take(uint64(w.d.Remaining()), "rest")
}

// StringAs walks a field whose type is a string.
func StringAs[S ~string](w *Walker, v *S) {
	s := string(*v)
	w.String(&s)
	if w.d != nil {
		*v = S(s)
	}
}

// IntAs walks a field whose type is an int as a zig-zag varint.
func IntAs[I ~int](w *Walker, v *I) {
	x := int64(*v)
	w.Int(&x)
	if w.d != nil {
		*v = I(x)
	}
}

// List walks a count-prefixed list, each element with walk. Decoding, min is
// the fewest bytes an element takes on the wire, and a count the remaining
// input cannot hold fails before anything is allocated; an empty list reads
// as nil, and the first error stops the read.
func List[T any](w *Walker, list *[]T, min int, walk func(*Walker, *T)) {
	if w.d == nil {
		n := uint64(len(*list))
		w.Uint(&n)
		for i := range *list {
			walk(w, &(*list)[i])
		}
		return
	}
	n := w.d.Count(min)
	if n == 0 {
		return
	}
	out := make([]T, n)
	for i := range out {
		if walk(w, &out[i]); w.d.err != nil {
			break
		}
	}
	*list = out
}

// Map walks a count-prefixed map, each entry with walk, which is handed a
// key and a value and returns them: encoding or sizing, each entry of m in
// map order; decoding, zero ones, and what it returns goes into the map. It
// takes and returns values, not pointers, so that sizing a map allocates
// nothing. Decoding, min is the fewest bytes an entry takes, as for List; an
// empty map reads as nil, and the first error stops the read.
func Map[K comparable, V any](w *Walker, m *map[K]V, min int, walk func(w *Walker, k K, v V) (K, V)) {
	if w.d == nil {
		n := uint64(len(*m))
		w.Uint(&n)
		for k, v := range *m {
			walk(w, k, v)
		}
		return
	}
	n := w.d.Count(min)
	if n == 0 {
		return
	}
	out := make(map[K]V, n)
	for i := 0; i < n; i++ {
		var (
			k K
			v V
		)
		if k, v = walk(w, k, v); w.d.err != nil {
			break
		}
		out[k] = v
	}
	*m = out
}

// Decoded returns what a walk returns: r boxed when w decodes, nil when it
// encodes or sizes, so those directions box nothing.
func Decoded[T any](w *Walker, r T) any {
	if w.d != nil {
		return r
	}
	return nil
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

// Reset empties the buffer and keeps its capacity, so one encoder can build
// message after message without growing a buffer for each.
func (e *Encoder) Reset() { e.b = e.b[:0] }

// Append appends v's full binary encoding (kind prefix included) in place,
// reporting whether v's type had a registered codec; the buffer is unchanged
// when it reports false. This is AppendBinary for callers composing a larger
// frame in one buffer.
func (e *Encoder) Append(v any) bool {
	w := walkers.Get().(*Walker)
	w.e = e
	ok := w.Append(v)
	w.e = nil
	walkers.Put(w)
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

// Raw appends b verbatim, no length prefix.
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
	b := d.take(1, "bool")
	return len(b) == 1 && b[0] != 0
}

// Float reads 8 fixed bytes.
func (d *Decoder) Float() float64 {
	if b := d.take(8, "float"); b != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}

// String reads a length-prefixed string. The declared length is validated
// against the remaining input before the string is materialized.
func (d *Decoder) String() string { return string(d.take(d.Uint(), "string")) }

// take consumes n bytes where they lie, or fails the decode, naming what the
// bytes were to hold.
func (d *Decoder) take(n uint64, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("%s of %d bytes exceeds %d remaining bytes", what, n, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
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
