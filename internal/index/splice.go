// Mutating a block in its encoded form.
//
// A write changes one posting of one block. The functions here build the
// block's successor from its bytes: copy what comes before the posting,
// write or drop the posting, re-front-code the posting after it (the only
// other one whose doc bytes depend on the change), copy the rest. No posting
// is decoded into a Posting and no string is made, so the cost is a walk over
// varints plus a copy of the block, and the allocations are those of the new
// block alone whatever it holds.
//
// The result is the canonical encoding — byte for byte what encodeBlock
// gives for the same postings — which is what lets the two routes be mixed
// freely and lets the tests use encodeBlock as the oracle. Canonical means
// every prefix length is the longest possible and the owner dictionary is
// exactly the owners in use, sorted; so a write that brings a block its
// first posting of some owner, or takes its last, edits the dictionary too.
// The dictionary is a front-coded sorted run like the postings' doc IDs, and
// the same two rules (appendAfterInsert, appendAfterRemove) edit both; when
// the entry is not the dictionary's last, the owner indexes above it shift by
// one and a second pass over the postings renumbers them.
//
// Two edits are declined (ok == false) and left to the decode → rebuild route
// in index.go: an insert that would take the block past blockMax, which has
// to split it, and a replace that hands a doc from an owner with no other
// posting in the block to an owner with none yet — two dictionary edits at
// once, which nothing but a test does.
//
// Everything here reads index-built bytes only: blocks made by encodeBlock or
// by an earlier splice, never bytes off the wire (those live in Encoded
// values and are validated by UnmarshalBinary). Lengths are therefore trusted
// the way decodeBlock trusts them.
package index

import (
	"encoding/binary"
	"slices"
)

// reader reads varints out of index-built block bytes.
type reader struct {
	data []byte
	off  int
}

// uvarint reads the unsigned varint at the reader's offset. Nearly every
// field of a block fits one byte; keeping the longer ones out of line keeps
// this within the inlining budget of the walks that call it per posting.
func (r *reader) uvarint() uint64 {
	if b := r.data[r.off]; b < 0x80 {
		r.off++
		return uint64(b)
	}
	return r.longUvarint()
}

func (r *reader) longUvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.off:])
	r.off += n
	return v
}

// layout is a block's parsed header: its counts and where the owner
// dictionary and the postings start.
type layout struct {
	n, m     int // postings, owner-dictionary entries
	dict     int // offset of the first dictionary entry
	postings int // offset of the first posting
}

func parseLayout(data []byte) layout {
	r := reader{data: data}
	l := layout{n: int(r.uvarint()), m: int(r.uvarint())}
	l.dict = r.off
	for i := 0; i < l.m; i++ {
		r.uvarint()
		r.off += int(r.uvarint())
	}
	l.postings = r.off
	return l
}

// entry is the extent of one element of a front-coded run — an owner in the
// dictionary, or a posting, whose key is its doc ID. The zero entry stands
// for "no element".
type entry struct {
	start, end     int // the whole element
	pre            int // key bytes shared with the previous element's key
	sufOff, sufEnd int // the key's remaining bytes
	oi             int // a posting's owner-dictionary index
}

func ownerAt(data []byte, off int) entry {
	r := reader{data: data, off: off}
	e := entry{start: off, pre: int(r.uvarint())}
	n := int(r.uvarint())
	e.sufOff, e.sufEnd, e.end = r.off, r.off+n, r.off+n
	return e
}

func postingAt(data []byte, off int) entry {
	r := reader{data: data, off: off}
	e := entry{start: off, pre: int(r.uvarint())}
	n := int(r.uvarint())
	e.sufOff, e.sufEnd = r.off, r.off+n
	r.off = e.sufEnd
	e.oi = int(r.uvarint())
	if r.uvarint()&31 == freqEscape {
		r.uvarint()
	}
	e.end = int(r.uvarint()) + r.off
	return e
}

// position is where a key falls in a run.
type position struct {
	entry        // the first element whose key is >= the key; zero, but for start and end both at the run's end, when i == n
	i       int  // that element's index
	found   bool // its key is the key
	lcpPrev int  // bytes the key shares with the key of element i-1 (0 when i == 0)
	lcpHere int  // bytes the key shares with the key of element i
}

// seek finds key's position among the n elements at off — postings or, when
// not, owners — comparing on the front-coded form: with l the bytes key
// shares with the previous element's key (which is below key), an element
// sharing more than l with that predecessor is still below key, one sharing
// fewer is above it, and only one sharing exactly l has its suffix compared.
// Over postings, ix.doc holds the doc of posting i-1 on return.
func (ix *Inverted) seek(data []byte, off, n int, postings bool, key string) position {
	prev := ix.doc[:0]
	l := 0
	for i := 0; i < n; i++ {
		var e entry
		if postings {
			e = postingAt(data, off)
		} else {
			e = ownerAt(data, off)
		}
		here, below, found := min(e.pre, l), e.pre > l, false
		if e.pre == l {
			suf := data[e.sufOff:e.sufEnd]
			k := sharedPrefix(suf, key[l:])
			here = l + k
			switch {
			case k == len(suf):
				below, found = here < len(key), here == len(key)
			case here < len(key):
				below = suf[k] < key[here]
			}
		}
		if !below {
			if postings {
				ix.doc = prev
			}
			return position{entry: e, i: i, found: found, lcpPrev: l, lcpHere: here}
		}
		l = here
		if postings {
			prev = append(prev[:e.pre], data[e.sufOff:e.sufEnd]...)
		}
		off = e.end
	}
	// Only an owner above the whole dictionary gets here: a doc handed to
	// seek is never above its block's last.
	return position{entry: entry{start: off, end: off}, i: n, lcpPrev: l}
}

// appendAfterInsert appends the rest of a run, up to hi, once an element has
// been written in front of the one at at. That one shares at least as much
// with the new key as with the predecessor it was coded on (the new key sorts
// between the two), so at most its suffix loses its first bytes to its
// prefix; everything after it is unchanged.
func appendAfterInsert(buf, data []byte, at position, hi int) []byte {
	rest := at.start
	if grow := at.lcpHere - at.pre; grow > 0 {
		buf = binary.AppendUvarint(buf, uint64(at.lcpHere))
		buf = binary.AppendUvarint(buf, uint64(at.sufEnd-at.sufOff-grow))
		rest = at.sufOff + grow
	}
	return append(buf, data[rest:hi]...)
}

// appendAfterRemove appends the rest of a run, up to hi, with the element
// gone dropped. next, the element after it (zero when it was the last), is
// now coded on gone's predecessor: where it leaned on more of gone's key than
// that predecessor shares, those bytes move into its suffix.
func appendAfterRemove(buf, data []byte, gone, next entry, hi int) []byte {
	rest := gone.end
	if next.pre > gone.pre {
		lent := data[gone.sufOff : gone.sufOff+next.pre-gone.pre]
		buf = binary.AppendUvarint(buf, uint64(gone.pre))
		buf = binary.AppendUvarint(buf, uint64(len(lent)+next.sufEnd-next.sufOff))
		buf = append(buf, lent...)
		rest = next.sufOff
	}
	return append(buf, data[rest:hi]...)
}

// ownerOrphaned reports whether no posting but the one at index skip refers
// to owner index oi — whether dropping or re-owning that posting takes the
// entry out of the dictionary.
func ownerOrphaned(data []byte, lay layout, skip, oi int) bool {
	off := lay.postings
	for i := 0; i < lay.n; i++ {
		e := postingAt(data, off)
		if e.oi == oi && i != skip {
			return false
		}
		off = e.end
	}
	return true
}

// appendDictWithout appends the owner dictionary less entry drop.
func appendDictWithout(buf, data []byte, lay layout, drop int) []byte {
	gone := ownerAt(data, lay.dict)
	for i := 0; i < drop; i++ {
		gone = ownerAt(data, gone.end)
	}
	var next entry
	if drop < lay.m-1 {
		next = ownerAt(data, gone.end)
	}
	buf = append(buf, data[lay.dict:gone.start]...)
	return appendAfterRemove(buf, data, gone, next, lay.postings)
}

// renumbered returns block, whose n postings start at off, with delta added
// to every owner index that is at least from — bar that of posting skip,
// which was written knowing the dictionary's edit.
func (ix *Inverted) renumbered(block []byte, off, n, skip, from, delta int) []byte {
	out, run := ix.buf2[:0], 0
	for i := 0; i < n; i++ {
		e := postingAt(block, off)
		if e.oi >= from && i != skip {
			out = append(out, block[run:e.sufEnd]...)
			out = binary.AppendUvarint(out, uint64(e.oi+delta))
			run = e.sufEnd + uvarintLen(uint64(e.oi))
		}
		off = e.end
	}
	out = append(out, block[run:]...)
	ix.buf2 = out
	return out
}

// spliceAdd returns b's successor with p inserted, or put in place of the
// posting for p.Doc. ok is false, and nothing else meaningful, when the edit
// must go through rebuild instead.
func (ix *Inverted) spliceAdd(b *block, p *Posting) (nb *block, replaced, ok bool) {
	data := b.data
	lay := parseLayout(data)
	own := ix.seek(data, lay.dict, lay.m, false, p.Owner)
	var at position
	if p.Doc > b.last {
		at = position{entry: entry{start: len(data), end: len(data)}, i: lay.n,
			lcpPrev: sharedPrefix(string(b.last), string(p.Doc))}
	} else {
		at = ix.seek(data, lay.postings, lay.n, true, string(p.Doc))
	}
	n, m, oi, drop := lay.n, lay.m, own.i, -1
	switch {
	case !at.found:
		if n++; n > blockMax {
			return nil, false, false
		}
	case (!own.found || at.oi != own.i) && ownerOrphaned(data, lay, at.i, at.oi):
		// The posting replaced was the last of its owner's.
		if !own.found {
			return nil, false, false
		}
		drop, m = at.oi, m-1
		if oi > drop {
			oi--
		}
	}

	buf := binary.AppendUvarint(ix.buf[:0], uint64(n))
	switch {
	case !own.found:
		buf = binary.AppendUvarint(buf, uint64(m+1))
		buf = append(buf, data[lay.dict:own.start]...)
		buf = appendFrontCoded(buf, own.lcpPrev, p.Owner)
		buf = appendAfterInsert(buf, data, own, lay.postings)
	case drop >= 0:
		buf = binary.AppendUvarint(buf, uint64(m))
		buf = appendDictWithout(buf, data, lay, drop)
	default:
		buf = binary.AppendUvarint(buf, uint64(m))
		buf = append(buf, data[lay.dict:lay.postings]...)
	}
	postings := len(buf)
	buf = append(buf, data[lay.postings:at.start]...)
	buf = appendPosting(buf, at.lcpPrev, p, oi)
	if at.found {
		buf = append(buf, data[at.end:]...)
	} else {
		buf = appendAfterInsert(buf, data, at, len(data))
	}
	ix.buf = buf
	switch {
	case !own.found && own.i < lay.m:
		buf = ix.renumbered(buf, postings, n, at.i, own.i, +1)
	case drop >= 0 && drop < lay.m-1:
		buf = ix.renumbered(buf, postings, n, at.i, drop+1, -1)
	}

	nb = &block{data: slices.Clone(buf), n: n, first: b.first, last: b.last}
	if !at.found && at.i == 0 {
		nb.first = p.Doc
	}
	if at.i == lay.n {
		nb.last = p.Doc
	}
	return nb, at.found, true
}

// spliceRemove returns b's successor without doc's posting, or nil when b
// has none for doc. b holds at least two postings.
func (ix *Inverted) spliceRemove(b *block, doc DocID) *block {
	data := b.data
	lay := parseLayout(data)
	at := ix.seek(data, lay.postings, lay.n, true, string(doc))
	if !at.found {
		return nil
	}
	n := lay.n - 1
	buf := binary.AppendUvarint(ix.buf[:0], uint64(n))
	orphaned := ownerOrphaned(data, lay, at.i, at.oi)
	if orphaned {
		buf = binary.AppendUvarint(buf, uint64(lay.m-1))
		buf = appendDictWithout(buf, data, lay, at.oi)
	} else {
		buf = binary.AppendUvarint(buf, uint64(lay.m))
		buf = append(buf, data[lay.dict:lay.postings]...)
	}
	postings := len(buf)
	buf = append(buf, data[lay.postings:at.start]...)
	nb := &block{n: n, first: b.first, last: b.last}
	var next entry
	if at.i == n {
		nb.last = DocID(ix.doc)
	} else {
		next = postingAt(data, at.end)
		if at.i == 0 {
			nb.first = doc[:next.pre] + DocID(data[next.sufOff:next.sufEnd])
		}
	}
	buf = appendAfterRemove(buf, data, at.entry, next, len(data))
	ix.buf = buf
	if orphaned && at.oi < lay.m-1 {
		buf = ix.renumbered(buf, postings, n, -1, at.oi+1, -1)
	}
	nb.data = slices.Clone(buf)
	return nb
}
