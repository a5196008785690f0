// Block-compressed postings storage.
//
// A term's postings are held as a short sequence of immutable encoded blocks
// of ~blockTarget postings each, ordered by ascending doc ID with disjoint
// doc-ID ranges. Inside a block, doc IDs are front-coded (shared-prefix
// length + suffix) against the previous posting — the sorted synthetic and
// real IDs this system indexes share long prefixes, so the delta is a byte
// or two — owners are deduplicated into a per-block sorted, front-coded
// dictionary referenced by index, and the (tf, doclen) pair is packed into a
// single varint for the common small-frequency case. The result is 6–12
// bytes per posting where a []Posting slice costs ~65 (see Posting.MemSize),
// which is what lets an indexing peer hold a million-document shard without
// GC becoming the wall (ROADMAP: "Compressed postings + million-document
// peers").
//
// Block byte layout (all integers are encoding/binary varints):
//
//	uvarint n           posting count, n >= 1
//	uvarint m           owner-dictionary size, 1 <= m <= n
//	m owner entries     sorted ascending, front-coded against the previous:
//	    uvarint prefixLen, uvarint suffixLen, suffix bytes
//	n postings          ascending doc ID:
//	    uvarint prefixLen   doc bytes shared with the previous posting's doc
//	    uvarint suffixLen, suffix bytes
//	    uvarint ownerIdx    index into the owner dictionary (< m)
//	    uvarint packed      zigzag(DocLen)<<5 | min(zigzag(Freq), 31)
//	    [uvarint zigzag(Freq)]  present only when the packed low bits are 31
//	    uvarint sketchLen, sketch bytes   the document's serialized feature
//	        sketch (internal/sketch), empty when the deployment does not
//	        sketch — one byte of overhead per posting then
//
// Blocks are immutable after encoding: a mutation builds the affected block's
// successor — by editing a copy of its bytes around the one posting that
// changes (splice.go), not by decoding it — and installs a fresh block slice,
// so any Encoded snapshot or Cursor taken earlier keeps reading the old bytes
// untouched — the same copy-on-write snapshot contract the slice-backed
// index gave Postings callers. The encoding is canonical: the owner
// dictionary holds exactly the owners in use, sorted, and every prefix length
// is the longest possible, so a block's bytes are a function of its postings
// alone and an edited block is byte-identical to encodeBlock of the same
// postings.
//
// Decoding follows the wire package's safety discipline: every declared
// length is validated against the bytes actually remaining before it sizes
// an allocation, and malformed input surfaces as a sticky Cursor error —
// never a panic (FuzzPostingsBlock pins this).
package index

import (
	"encoding/binary"
	"fmt"
	"iter"
	"unsafe"
)

const (
	// blockTarget is the posting count a freshly split block aims for.
	blockTarget = 128
	// blockMax is the count at which an insert splits a block in two. Bulk
	// ascending loads instead seal a full last block and start a new one,
	// so sorted ingestion produces tightly packed blockMax-sized blocks
	// and never decodes or re-encodes a posting it already stored.
	blockMax = 2 * blockTarget
	// freqEscape marks a packed tf/doclen entry whose zigzag frequency did
	// not fit the 5 packed bits and follows as an explicit varint.
	freqEscape = 31
)

// block is one immutable run of encoded postings. first and last bound the
// doc IDs inside (inclusive); mutations use them to route to the single
// block a doc ID can live in.
type block struct {
	data        []byte
	n           int
	first, last DocID
}

// zigzag maps signed to unsigned the way encoding/binary's varints do, so
// the occasional nonsense negative field still round-trips.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// sharedPrefix returns the length of the longest common prefix of a and b.
func sharedPrefix[A, B string | []byte](a A, b B) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// encodeBlock encodes postings (non-empty, ascending by Doc, distinct docs)
// into a fresh block.
func encodeBlock(ps []Posting) *block {
	// Owner dictionary: sorted distinct owners, insertion-sorted — blocks
	// are small and owners mostly pre-sorted, so this beats sort.Strings'
	// interface overhead on the bulk-load path.
	owners := make([]string, 0, 8)
	for _, p := range ps {
		i, ok := searchString(owners, p.Owner)
		if !ok {
			owners = append(owners, "")
			copy(owners[i+1:], owners[i:])
			owners[i] = p.Owner
		}
	}

	size := 4
	for _, o := range owners {
		size += len(o) + 2
	}
	for _, p := range ps {
		size += len(p.Doc) + len(p.Sketch) + 8
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	buf = binary.AppendUvarint(buf, uint64(len(owners)))
	prev := ""
	for _, o := range owners {
		buf = appendFrontCoded(buf, sharedPrefix(prev, o), o)
		prev = o
	}
	prev = ""
	for i := range ps {
		p := &ps[i]
		oi, _ := searchString(owners, p.Owner)
		buf = appendPosting(buf, sharedPrefix(prev, string(p.Doc)), p, oi)
		prev = string(p.Doc)
	}
	return &block{data: buf, n: len(ps), first: ps[0].Doc, last: ps[len(ps)-1].Doc}
}

// appendFrontCoded appends s as a front-coded entry — the length of the
// prefix it shares with its predecessor, then the remaining bytes.
func appendFrontCoded(buf []byte, pre int, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(pre))
	buf = binary.AppendUvarint(buf, uint64(len(s)-pre))
	return append(buf, s[pre:]...)
}

// appendPosting appends p's encoding: its doc front-coded on the pre bytes
// shared with the previous posting's doc, oi its owner's dictionary index.
// It is the only writer of posting bytes, so encodeBlock and the splice
// cannot disagree on them.
func appendPosting(buf []byte, pre int, p *Posting, oi int) []byte {
	buf = appendFrontCoded(buf, pre, string(p.Doc))
	buf = binary.AppendUvarint(buf, uint64(oi))
	zf, zl := zigzag(int64(p.Freq)), zigzag(int64(p.DocLen))
	if zf < freqEscape {
		buf = binary.AppendUvarint(buf, zl<<5|zf)
	} else {
		buf = binary.AppendUvarint(buf, zl<<5|freqEscape)
		buf = binary.AppendUvarint(buf, zf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Sketch)))
	return append(buf, p.Sketch...)
}

// searchString returns the insertion index of s in the ascending slice list
// and whether s is already present.
func searchString(list []string, s string) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo] == s
}

// Cursor streams decoded postings out of a sequence of encoded blocks in
// ascending doc-ID order. A cursor is a snapshot: the blocks it walks are
// immutable, so it stays valid across concurrent-looking index mutations
// (which install fresh blocks instead of touching these).
//
// Malformed block bytes stop the cursor and surface through Err; decoding
// never panics and never allocates more than the input could justify.
type Cursor struct {
	blocks []*block
	bi     int // next block to open

	// State of the currently open block.
	data      []byte
	off       int
	left      int // postings still to decode in this block
	ownerOff  int // offset of the owner dictionary (for lazy materialization)
	ownerCnt  int
	owners    []string // materialized on first Next; NextBytes leaves it nil
	lastOwner int      // owner index of the posting NextBytes just returned

	doc    []byte // scratch: the previous posting's doc bytes
	sketch []byte // the last posting's sketch bytes, aliasing the block data
	err    error
}

// Err returns the first decode error the cursor hit, if any. A truncated or
// corrupted block ends iteration early with Err set; well-formed input ends
// with Err nil.
func (c *Cursor) Err() error { return c.err }

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("index: "+format, args...)
	}
}

// uvarint reads one unsigned varint at the current offset. Nearly every
// field in a block — prefix/suffix lengths, owner indexes, packed tf/doclen —
// fits in one byte, so that case is decoded inline before falling back to
// binary.Uvarint.
func (c *Cursor) uvarint() (uint64, bool) {
	if c.off < len(c.data) {
		if b := c.data[c.off]; b < 0x80 {
			c.off++
			return uint64(b), true
		}
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail("truncated or overlong uvarint at offset %d", c.off)
		return 0, false
	}
	c.off += n
	return v, true
}

// openBlock parses the next block's header and positions the cursor at its
// first posting. The owner dictionary is skipped, not materialized — only
// Next (which returns owner strings) pays for it.
func (c *Cursor) openBlock() bool {
	for c.left == 0 {
		if c.err != nil || c.bi >= len(c.blocks) {
			return false
		}
		b := c.blocks[c.bi]
		c.bi++
		c.data, c.off = b.data, 0
		c.owners = nil
		c.doc = c.doc[:0]
		n, ok := c.uvarint()
		if !ok {
			return false
		}
		// Each posting occupies >= 3 bytes, each owner >= 2; a count the
		// remaining bytes cannot hold is corruption, rejected before any
		// allocation is sized from it.
		if n == 0 || n > uint64(len(c.data)) {
			c.fail("block claims %d postings in %d bytes", n, len(c.data))
			return false
		}
		m, ok := c.uvarint()
		if !ok {
			return false
		}
		if m == 0 || m > n || m > uint64(len(c.data)-c.off) {
			c.fail("block claims %d owners for %d postings", m, n)
			return false
		}
		c.left, c.ownerCnt, c.ownerOff = int(n), int(m), c.off
		if !c.skipOwners() {
			return false
		}
	}
	return c.err == nil
}

// skipOwners advances past the owner dictionary without building strings. It
// checks what materializeOwners will, tracking only lengths, so a block that
// validates always decodes its owners.
func (c *Cursor) skipOwners() bool {
	var prevLen uint64
	for i := 0; i < c.ownerCnt; i++ {
		pre, ok := c.uvarint()
		if !ok {
			return false
		}
		suf, ok := c.uvarint()
		if !ok {
			return false
		}
		if pre > prevLen || suf > uint64(len(c.data)-c.off) {
			c.fail("owner entry %d: prefix %d of %d, suffix %d of %d remaining",
				i, pre, prevLen, suf, len(c.data)-c.off)
			return false
		}
		c.off += int(suf)
		prevLen = pre + suf
	}
	return true
}

// materializeOwners decodes the current block's owner dictionary. Only the
// owner-carrying Next path needs it; scoring via NextBytes never does.
func (c *Cursor) materializeOwners() bool {
	save := c.off
	c.off = c.ownerOff
	owners := make([]string, 0, c.ownerCnt)
	prev := ""
	for i := 0; i < c.ownerCnt; i++ {
		pre, ok := c.uvarint()
		if !ok {
			break
		}
		suf, ok := c.uvarint()
		if !ok {
			break
		}
		if pre > uint64(len(prev)) || suf > uint64(len(c.data)-c.off) {
			c.fail("owner entry %d: prefix %d of %d, suffix %d of %d remaining",
				i, pre, len(prev), suf, len(c.data)-c.off)
			break
		}
		o := prev[:pre] + string(c.data[c.off:c.off+int(suf)])
		c.off += int(suf)
		owners = append(owners, o)
		prev = o
	}
	c.off = save
	c.owners = owners
	return c.err == nil
}

// NextBytes decodes the next posting without materializing strings: doc
// aliases the cursor's scratch buffer and is valid only until the next call.
// This is the scoring hot path — the accumulator probes its map with the raw
// bytes and only a first-seen doc ID is ever copied to a string. The four
// per-posting varints are decoded inline on local data/off copies (nearly
// all are single bytes); only a multi-byte value falls back to the uvarint
// method, which the compiler refuses to inline.
func (c *Cursor) NextBytes() (doc []byte, freq, docLen int, ok bool) {
	if c.left == 0 && !c.openBlock() {
		return nil, 0, 0, false
	}
	data, off := c.data, c.off

	var pre uint64
	if off < len(data) && data[off] < 0x80 {
		pre, off = uint64(data[off]), off+1
	} else {
		c.off = off
		if pre, ok = c.uvarint(); !ok {
			return nil, 0, 0, false
		}
		off = c.off
	}
	var suf uint64
	if off < len(data) && data[off] < 0x80 {
		suf, off = uint64(data[off]), off+1
	} else {
		c.off = off
		if suf, ok = c.uvarint(); !ok {
			return nil, 0, 0, false
		}
		off = c.off
	}
	if pre > uint64(len(c.doc)) || suf > uint64(len(data)-off) {
		c.fail("doc entry: prefix %d of %d, suffix %d of %d remaining",
			pre, len(c.doc), suf, len(data)-off)
		return nil, 0, 0, false
	}
	c.doc = append(c.doc[:pre], data[off:off+int(suf)]...)
	off += int(suf)

	var oi uint64
	if off < len(data) && data[off] < 0x80 {
		oi, off = uint64(data[off]), off+1
	} else {
		c.off = off
		if oi, ok = c.uvarint(); !ok {
			return nil, 0, 0, false
		}
		off = c.off
	}
	if oi >= uint64(c.ownerCnt) {
		c.fail("owner index %d out of %d", oi, c.ownerCnt)
		return nil, 0, 0, false
	}
	c.lastOwner = int(oi)

	var packed uint64
	if off < len(data) && data[off] < 0x80 {
		packed, off = uint64(data[off]), off+1
	} else {
		c.off = off
		if packed, ok = c.uvarint(); !ok {
			return nil, 0, 0, false
		}
		off = c.off
	}
	zf := packed & 31
	if zf == freqEscape {
		c.off = off
		if zf, ok = c.uvarint(); !ok {
			return nil, 0, 0, false
		}
		off = c.off
	}

	var slen uint64
	if off < len(data) && data[off] < 0x80 {
		slen, off = uint64(data[off]), off+1
	} else {
		c.off = off
		if slen, ok = c.uvarint(); !ok {
			return nil, 0, 0, false
		}
		off = c.off
	}
	if slen > uint64(len(data)-off) {
		c.fail("sketch length %d exceeds %d remaining bytes", slen, len(data)-off)
		return nil, 0, 0, false
	}
	if slen == 0 {
		c.sketch = nil
	} else {
		c.sketch = data[off : off+int(slen) : off+int(slen)]
		off += int(slen)
	}

	c.off = off
	c.left--
	return c.doc, int(unzigzag(zf)), int(unzigzag(packed >> 5)), true
}

// SketchBytes returns the serialized feature sketch of the posting the last
// NextBytes/Next call produced, or nil when the posting carries none. The
// slice aliases the immutable block data, so unlike the doc bytes it stays
// valid across further cursor advances.
func (c *Cursor) SketchBytes() []byte { return c.sketch }

// Next decodes the next posting, owner included. It reports false at the end
// of the postings or on malformed input (check Err to tell the two apart).
func (c *Cursor) Next() (Posting, bool) {
	doc, freq, docLen, ok := c.NextBytes()
	if !ok {
		return Posting{}, false
	}
	if c.owners == nil && !c.materializeOwners() {
		return Posting{}, false
	}
	return Posting{Doc: DocID(doc), Owner: c.owners[c.lastOwner], Freq: freq, DocLen: docLen, Sketch: string(c.sketch)}, true
}

// Encoded is an immutable snapshot of one term's block-compressed postings.
// It is the unit that travels: indexing peers answer postings fetches with
// it, the postings cache accounts it at Size() encoded bytes, and the wire
// codec ships the block bytes as-is — the querier decodes lazily, one
// posting at a time, through Cursor or All. The zero value is an empty list.
type Encoded struct {
	blocks []*block
	n      int
	bytes  int
}

// Len returns the number of postings.
func (e Encoded) Len() int { return e.n }

// Size returns the encoded payload size in bytes — the footprint the cache
// and bandwidth accounting charge for this list.
func (e Encoded) Size() int { return e.bytes }

// NumBlocks returns the number of storage blocks backing the list.
func (e Encoded) NumBlocks() int { return len(e.blocks) }

// Cursor returns a streaming decoder positioned before the first posting.
func (e Encoded) Cursor() *Cursor { return &Cursor{blocks: e.blocks} }

// All iterates the postings in ascending doc-ID order. Malformed blocks end
// the sequence early (use Cursor directly to observe the error).
func (e Encoded) All() iter.Seq[Posting] {
	return func(yield func(Posting) bool) {
		c := e.Cursor()
		for p, ok := c.Next(); ok; p, ok = c.Next() {
			if !yield(p) {
				return
			}
		}
	}
}

// Slice decodes the full list into a fresh slice — the compatibility path
// for callers that genuinely need random access (snapshots, the chaos
// oracle). Nil when empty.
func (e Encoded) Slice() []Posting {
	if e.n == 0 {
		return nil
	}
	out := make([]Posting, 0, e.n)
	c := e.Cursor()
	for p, ok := c.Next(); ok; p, ok = c.Next() {
		out = append(out, p)
	}
	return out
}

// MarshalBinary encodes the block sequence as
//
//	uvarint blockCount, then per block: uvarint len(data), data bytes
//
// It is the list's wire form: getPostingsResp's binary codec ships these
// bytes.
func (e Encoded) MarshalBinary() ([]byte, error) {
	size := 1
	for _, b := range e.blocks {
		size += uvarintLen(uint64(len(b.data))) + len(b.data)
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, uint64(len(e.blocks)))
	for _, b := range e.blocks {
		out = binary.AppendUvarint(out, uint64(len(b.data)))
		out = append(out, b.data...)
	}
	return out, nil
}

// UnmarshalBinary decodes a MarshalBinary payload, fully validating every
// block — counts, lengths, owner references, and ascending doc order within
// and across blocks — before accepting it. Malformed input returns an error
// and leaves e empty; it never panics.
func (e *Encoded) UnmarshalBinary(data []byte) error {
	*e = Encoded{}
	off := 0
	// Lengths must be in canonical (shortest) form: MarshalBinary writes
	// them so, and an accepted payload re-marshals to the same bytes.
	count, k := binary.Uvarint(data[off:])
	if k <= 0 || k != uvarintLen(count) {
		return fmt.Errorf("index: truncated or overlong block count")
	}
	off += k
	if count > uint64(len(data)-off) {
		return fmt.Errorf("index: %d blocks cannot fit in %d bytes", count, len(data)-off)
	}
	var (
		blocks []*block
		n      int
		bytes  int
		prev   DocID
	)
	for i := uint64(0); i < count; i++ {
		blen, k := binary.Uvarint(data[off:])
		if k <= 0 || k != uvarintLen(blen) || blen > uint64(len(data)-off-k) {
			return fmt.Errorf("index: block %d: bad length", i)
		}
		off += k
		b := &block{data: data[off : off+int(blen) : off+int(blen)]}
		off += int(blen)
		if err := b.validate(); err != nil {
			return fmt.Errorf("index: block %d: %w", i, err)
		}
		if len(blocks) > 0 && b.first <= prev {
			return fmt.Errorf("index: block %d: doc %q not above previous block's %q", i, b.first, prev)
		}
		prev = b.last
		blocks = append(blocks, b)
		n += b.n
		bytes += len(b.data)
	}
	if off != len(data) {
		return fmt.Errorf("index: %d trailing bytes after %d blocks", len(data)-off, count)
	}
	e.blocks, e.n, e.bytes = blocks, n, bytes
	return nil
}

// validate walks the block once, filling in n/first/last and rejecting any
// structural corruption, including non-ascending or duplicate doc IDs.
func (b *block) validate() error {
	c := Cursor{blocks: []*block{b}}
	var (
		prev  DocID
		count int
	)
	for {
		doc, _, _, ok := c.NextBytes()
		if !ok {
			break
		}
		id := DocID(doc)
		if count > 0 && id <= prev {
			return fmt.Errorf("doc %q not above %q", id, prev)
		}
		if count == 0 {
			b.first = id
		}
		prev = id
		count++
	}
	if c.err != nil {
		return c.err
	}
	// A block claiming more postings than its bytes deliver is truncated;
	// bytes beyond the claimed postings are equally malformed.
	if count == 0 || c.left != 0 {
		return fmt.Errorf("block ends after %d of %d postings", count, count+c.left)
	}
	if c.off != len(b.data) {
		return fmt.Errorf("%d trailing bytes after %d postings", len(b.data)-c.off, count)
	}
	b.n, b.last = count, prev
	return nil
}

// MemSize returns the in-memory footprint of the posting as a []Posting
// element: the struct itself plus the string bytes it points at. This is the
// per-posting cost the block representation is measured against in
// BENCH_postings.json.
func (p Posting) MemSize() int {
	return int(unsafe.Sizeof(Posting{})) + len(p.Doc) + len(p.Owner) + len(p.Sketch)
}
