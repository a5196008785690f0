// Package index provides the inverted-index structures shared by every
// retrieval system in this repository: the centralized baseline, eSearch,
// and SPRITE's indexing peers all store postings in the shape defined here.
//
// A posting carries exactly the metadata the SPRITE paper says an indexing
// peer keeps per term (§5.1): the owning document, the owner peer's address,
// the term's frequency in the document, and the document length. Document
// length travels with the posting so the querying peer can normalize term
// frequency and apply the Lee et al. similarity denominator without any
// extra round trip (§4).
//
// Two implementations share the Store interface. Inverted is the production
// store: per-term lists of immutable block-compressed postings (see block.go
// for the byte layout) mutated copy-on-write at block granularity, read
// through iterators and cursors so queries decode one posting at a time.
// Plain is the uncompressed reference the property and twin tests compare
// against. Both serve postings in ascending doc-ID order — the served order
// is part of the contract, because query-side float accumulation must fold
// identically whichever store produced the stream.
package index

import (
	"fmt"
	"iter"
	"slices"
	"sort"
)

// DocID identifies a document globally. Owner peers assign them; they are
// opaque to indexing peers.
type DocID string

// Posting is one inverted-list entry: term t occurs Freq times in document
// Doc of length DocLen, owned by the peer at Owner. Sketch optionally carries
// the document's serialized feature sketch (internal/sketch) so similarity
// queries can re-rank candidates without a round trip to the owner; it is
// empty when the deployment does not sketch. It is held as a string so
// Posting stays comparable — the twin and invariant tests compare postings
// wholesale.
type Posting struct {
	Doc    DocID
	Owner  string // owner peer address ("IP address" in the paper)
	Freq   int    // raw term frequency in the document
	DocLen int    // total number of terms in the document
	Sketch string // serialized sketch.Vector bytes, "" when absent
}

// NormFreq returns the length-normalized term frequency t_ik used in the
// TF·IDF weight (§4).
func (p Posting) NormFreq() float64 {
	if p.DocLen == 0 {
		return 0
	}
	return float64(p.Freq) / float64(p.DocLen)
}

// WireSize is the encoded size of the posting in bytes under the wire
// package's binary codec: three length-prefixed strings (doc, owner, sketch)
// and two zig-zag varints. Bandwidth telemetry and cache byte-accounting use
// it, so it must agree with what internal/wire actually ships.
func (p Posting) WireSize() int {
	return uvarintLen(uint64(len(p.Doc))) + len(p.Doc) +
		uvarintLen(uint64(len(p.Owner))) + len(p.Owner) +
		uvarintLen(zigzag(int64(p.Freq))) + uvarintLen(zigzag(int64(p.DocLen))) +
		uvarintLen(uint64(len(p.Sketch))) + len(p.Sketch)
}

// Store is the index API shared by the compressed production implementation
// (Inverted) and the uncompressed reference (Plain). Reads stream: All
// yields postings in ascending doc-ID order without materializing a decoded
// list; PostingsSlice is the compatibility helper for callers that need one.
type Store interface {
	Add(term string, p Posting)
	Remove(term string, doc DocID) bool
	RemoveDoc(doc DocID) int
	All(term string) iter.Seq[Posting]
	PostingsSlice(term string) []Posting
	DocFreq(term string) int
	Has(term string) bool
	Terms() []string
	NumTerms() int
	NumDocs() int
	NumPostings() int
}

// termList is one term's postings: a sequence of immutable encoded blocks
// with ascending, disjoint doc-ID ranges. The struct itself is immutable
// too — mutations build a fresh termList sharing the untouched blocks — so
// an Encoded snapshot is a plain three-word copy.
type termList struct {
	blocks []*block
	n      int // postings across all blocks
	bytes  int // encoded bytes across all blocks
}

// Inverted is an in-memory inverted index over block-compressed postings:
// term → immutable block sequence. The zero value is not ready to use;
// create with NewInverted.
type Inverted struct {
	lists    map[string]*termList
	docs     map[DocID]int // postings held per document
	postings int

	// Scratch the splice reuses across mutations (splice.go): the block
	// under construction, its renumbered copy, and the doc ID a walk last
	// reconstructed.
	buf, buf2, doc []byte
	// rebuilds counts the Adds that went through decode → rebuild because
	// the splice declined them; the tests pin when that may happen.
	rebuilds int
}

// NewInverted returns an empty index.
func NewInverted() *Inverted {
	return &Inverted{
		lists: make(map[string]*termList),
		docs:  make(map[DocID]int),
	}
}

// searchBlocks returns the index of the first block whose last doc ID is
// >= doc — the only block that can contain doc, since ranges are disjoint
// and ascending. Returns len(blocks) when doc is beyond every block.
func searchBlocks(blocks []*block, doc DocID) int {
	lo, hi := 0, len(blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if blocks[mid].last < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchPostings returns the insertion index of doc in the ascending decoded
// slice and whether it is already present.
func searchPostings(ps []Posting, doc DocID) (int, bool) {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := (lo + hi) / 2
		if ps[mid].Doc < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ps) && ps[lo].Doc == doc
}

// decodeBlock decodes one index-built block. Blocks produced by encodeBlock
// or the splice are well-formed by construction, so decoding cannot fail
// here.
func decodeBlock(b *block) []Posting {
	return Encoded{blocks: []*block{b}, n: b.n, bytes: len(b.data)}.Slice()
}

// rebuild re-encodes a decoded block's postings, splitting when an insert
// pushed the count past blockMax so blocks stay near blockTarget.
func rebuild(ps []Posting) []*block {
	if len(ps) > blockMax {
		h := len(ps) / 2
		return []*block{encodeBlock(ps[:h]), encodeBlock(ps[h:])}
	}
	return []*block{encodeBlock(ps)}
}

// install replaces block bi of term's list with repl — none, one, or the two
// halves of a split — in a fresh block slice (snapshots hold the old one),
// moving the list's totals by the difference. A list left empty is deleted.
func (ix *Inverted) install(term string, tl *termList, bi int, repl ...*block) {
	old := tl.blocks[bi]
	n, bytes := tl.n-old.n, tl.bytes-len(old.data)
	for _, b := range repl {
		n += b.n
		bytes += len(b.data)
	}
	if n == 0 {
		delete(ix.lists, term)
		return
	}
	blocks := make([]*block, 0, len(tl.blocks)-1+len(repl))
	blocks = append(blocks, tl.blocks[:bi]...)
	blocks = append(blocks, repl...)
	blocks = append(blocks, tl.blocks[bi+1:]...)
	ix.lists[term] = &termList{blocks: blocks, n: n, bytes: bytes}
}

// Add inserts a posting for term. Adding the same (term, doc) pair twice
// replaces the earlier posting — publishing is idempotent, as required for
// SPRITE's periodic index refresh (§3).
//
// Mutations are copy-on-write at block granularity: the one block whose
// doc-ID range covers p.Doc gets a successor, swapped into a fresh block
// slice. Blocks are never modified in place, so snapshots previously
// returned by Encoded (and cursors over them) stay valid and immutable. The
// successor is made by editing the block's encoded bytes (splice.go): a doc
// above the list's last one — the bulk-load order — copies the tail block
// and writes one posting after it, and a doc inside a block is walked to
// without decoding. Only an edit the splice declines — an insert into a block
// already at blockMax, which splits it, or a replace that swaps one owner out
// of the block's dictionary and another in — decodes the block into postings
// and re-encodes it.
func (ix *Inverted) Add(term string, p Posting) { ix.Put(term, p) }

// Put is Add reporting whether it replaced a posting the index already held
// for (term, p.Doc).
func (ix *Inverted) Put(term string, p Posting) (replaced bool) {
	tl := ix.lists[term]
	switch {
	case tl == nil:
		b := encodeBlock([]Posting{p})
		ix.lists[term] = &termList{blocks: []*block{b}, n: 1, bytes: len(b.data)}
	case p.Doc > tl.blocks[len(tl.blocks)-1].last && tl.blocks[len(tl.blocks)-1].n >= blockMax:
		// The tail block is full: seal it and start the next.
		b := encodeBlock([]Posting{p})
		blocks := make([]*block, len(tl.blocks)+1)
		copy(blocks, tl.blocks)
		blocks[len(tl.blocks)] = b
		ix.lists[term] = &termList{blocks: blocks, n: tl.n + 1, bytes: tl.bytes + len(b.data)}
	default:
		bi := min(searchBlocks(tl.blocks, p.Doc), len(tl.blocks)-1)
		old := tl.blocks[bi]
		nb, found, ok := ix.spliceAdd(old, &p)
		if ok {
			ix.install(term, tl, bi, nb)
		} else {
			ix.rebuilds++
			ps := decodeBlock(old)
			var i int
			if i, found = searchPostings(ps, p.Doc); found {
				ps[i] = p
			} else {
				ps = slices.Insert(ps, i, p)
			}
			ix.install(term, tl, bi, rebuild(ps)...)
		}
		replaced = found
	}
	if !replaced {
		ix.postings++
		ix.docs[p.Doc]++
	}
	return replaced
}

// Remove deletes the posting for (term, doc) if present and reports whether
// it was found. SPRITE's learning removes obsolete terms this way (§5.3).
func (ix *Inverted) Remove(term string, doc DocID) bool {
	tl := ix.lists[term]
	return tl != nil && ix.removeFrom(term, tl, doc)
}

// removeFrom drops doc from term's list, installing the list's successor (or
// deleting the term when its last posting goes). Reports whether doc was
// present.
func (ix *Inverted) removeFrom(term string, tl *termList, doc DocID) bool {
	bi := searchBlocks(tl.blocks, doc)
	if bi == len(tl.blocks) || tl.blocks[bi].first > doc {
		return false
	}
	old := tl.blocks[bi]
	if old.n == 1 {
		// first <= doc <= last of a one-posting block: it is the posting.
		ix.install(term, tl, bi)
	} else if nb := ix.spliceRemove(old, doc); nb != nil {
		ix.install(term, tl, bi, nb)
	} else {
		return false
	}
	ix.postings--
	if ix.docs[doc]--; ix.docs[doc] == 0 {
		delete(ix.docs, doc)
	}
	return true
}

// RemoveDoc deletes every posting belonging to doc (un-sharing a document).
// It returns the number of postings removed. A doc the index holds nothing
// of costs one map probe; otherwise per-term cost is a block-range binary
// search — only terms that actually hold the doc walk a block — and the scan
// over terms ends at the doc's last posting.
func (ix *Inverted) RemoveDoc(doc DocID) int {
	held := ix.docs[doc]
	if held == 0 {
		return 0
	}
	removed := 0
	for term, tl := range ix.lists {
		if ix.removeFrom(term, tl, doc) {
			if removed++; removed == held {
				break
			}
		}
	}
	return removed
}

// Encoded returns term's postings as an immutable compressed snapshot — the
// zero-copy form that is cached, shipped on the wire, and decoded lazily at
// the querier. The zero Encoded (empty list) is returned for unindexed
// terms.
func (ix *Inverted) Encoded(term string) Encoded {
	tl := ix.lists[term]
	if tl == nil {
		return Encoded{}
	}
	return Encoded{blocks: tl.blocks, n: tl.n, bytes: tl.bytes}
}

// All iterates term's postings in ascending doc-ID order, decoding one
// posting at a time. The sequence is a snapshot: mutations made while
// iterating are not observed.
func (ix *Inverted) All(term string) iter.Seq[Posting] {
	return ix.Encoded(term).All()
}

// Cursor returns a streaming decoder over term's postings — the pull-style
// counterpart to All for accumulator loops that interleave other work.
func (ix *Inverted) Cursor(term string) *Cursor {
	return ix.Encoded(term).Cursor()
}

// PostingsSlice decodes term's full postings list into a fresh slice (nil if
// the term is not indexed) — a compatibility helper for random-access
// callers; the query path streams through All or Cursor instead.
func (ix *Inverted) PostingsSlice(term string) []Posting {
	return ix.Encoded(term).Slice()
}

// DocFreq returns the number of documents in whose postings list term
// appears. For SPRITE's indexing peers this is the *indexed document
// frequency* n'_k of §4 — the count of documents that chose the term as a
// global index term, not the corpus-wide document frequency.
func (ix *Inverted) DocFreq(term string) int {
	tl := ix.lists[term]
	if tl == nil {
		return 0
	}
	return tl.n
}

// Has reports whether term has at least one posting.
func (ix *Inverted) Has(term string) bool { return ix.lists[term] != nil }

// Terms returns all indexed terms in sorted order.
func (ix *Inverted) Terms() []string {
	out := make([]string, 0, len(ix.lists))
	for t := range ix.lists {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// NumTerms returns the number of distinct indexed terms.
func (ix *Inverted) NumTerms() int { return len(ix.lists) }

// NumDocs returns the number of distinct documents the index currently holds
// at least one posting of: a document leaves the count with its last posting,
// whether Remove or RemoveDoc took it.
func (ix *Inverted) NumDocs() int { return len(ix.docs) }

// NumPostings returns the total number of postings across all terms — the
// index's storage footprint, the quantity SPRITE's selective indexing is
// designed to shrink (§1).
func (ix *Inverted) NumPostings() int { return ix.postings }

// Stats summarizes the index's storage footprint.
type Stats struct {
	Terms    int
	Docs     int
	Postings int
	// Blocks and EncodedBytes describe the compressed representation:
	// immutable block count and total encoded payload.
	Blocks       int
	EncodedBytes int
}

// BytesPerPosting returns the mean encoded bytes per posting (0 when empty).
func (s Stats) BytesPerPosting() float64 {
	if s.Postings == 0 {
		return 0
	}
	return float64(s.EncodedBytes) / float64(s.Postings)
}

// Stats walks the term map and returns the current storage footprint.
func (ix *Inverted) Stats() Stats {
	s := Stats{Terms: len(ix.lists), Docs: len(ix.docs), Postings: ix.postings}
	for _, tl := range ix.lists {
		s.Blocks += len(tl.blocks)
		s.EncodedBytes += tl.bytes
	}
	return s
}

// String summarizes the index for logs.
func (ix *Inverted) String() string {
	return fmt.Sprintf("inverted{terms=%d docs=%d postings=%d}",
		ix.NumTerms(), ix.NumDocs(), ix.NumPostings())
}

var _ Store = (*Inverted)(nil)
