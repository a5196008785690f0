package ir

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"

	"github.com/spritedht/sprite/internal/index"
)

// This file is the production scorer: a k-way merge over the query terms'
// compressed cursors. Every cursor yields its postings in ascending doc-ID
// order, so all of a document's contributions are adjacent in the merged
// stream — the document can be scored completely and offered to a bounded
// top-k heap the moment the merge reaches it. No per-document map entry or
// materialized string is ever built for documents that do not reach the
// top k; a query's working state is one slice of cursors, one byte buffer
// carved into their doc scratch and the heap's k slots, and the heap.
//
// The rankings are bit-identical to accumulating the same streams term by
// term: each document's dot product sums its per-term contributions in query
// term order (exactly the additions Accumulate would perform, in the same
// order), and (score, doc) is a strict total order, so top-k selection is
// insensitive to the order documents are offered in.

// MergeTerm is one query term's input to MergeTopK: the term's postings plus
// its scoring inputs.
type MergeTerm struct {
	List index.Encoded // the term's postings
	WQ   float64       // query-side weight of the term
	N    int           // collection size for the IDF factor
	DF   int           // term document frequency
}

// mergeState is one term's position in the merge: its cursor, held by value
// (live-term compaction moves the states, and nothing points into one), and
// the head posting decoded off it. doc aliases the cursor's scratch and is
// valid until the cursor's next advance; key is doc's first 8 bytes.
type mergeState struct {
	cur          index.Cursor
	key          uint64
	doc          []byte
	freq, docLen int
	wq, idf      float64
}

// advance decodes the term's next head and reports whether there was one.
func (s *mergeState) advance() (ok bool) {
	s.doc, s.freq, s.docLen, ok = s.cur.NextBytes()
	s.key = docKey(s.doc)
	return ok
}

// docKey is doc's first 8 bytes as a big-endian integer, zero-padded. Two
// docs whose keys differ order as their keys do: a shorter ID's padding is
// no greater than the byte the longer one has there.
func docKey(doc []byte) uint64 {
	if len(doc) >= 8 {
		return binary.BigEndian.Uint64(doc)
	}
	var k uint64
	for i, b := range doc {
		k |= uint64(b) << (56 - 8*i)
	}
	return k
}

// cmpHeads orders two heads by doc ID, as bytes.Compare would. Only equal
// keys look at the bytes: then the docs share their first 8 bytes, or one
// (of at most 8) is a prefix of the other, padding equal to the longer's
// zero bytes, and the lengths decide.
func cmpHeads(a, b *mergeState) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return cmpTails(a.doc, b.doc)
}

// cmpTails is cmpHeads for two docs with equal keys.
func cmpTails(a, b []byte) int {
	if len(a) <= 8 || len(b) <= 8 {
		return cmp.Compare(len(a), len(b))
	}
	return bytes.Compare(a[8:], b[8:])
}

// contribution is the head posting's share of its document's dot product:
// wq · Weight(ntf, N, DF) with the loop-invariant IDF factor computed once,
// multiplied in the same order, so the bits are those of the slice loop.
func (s *mergeState) contribution() float64 {
	nf := 0.0
	if s.docLen != 0 {
		nf = float64(s.freq) / float64(s.docLen)
	}
	return s.wq * (nf * s.idf)
}

// MergeTopK scores the documents covered by terms and returns the k best
// hits in rank order — the list Accumulator.Ranked().Top(k) produces after
// Accumulate runs over every term's decoded postings in terms order,
// selected without decoding a list or building the accumulator. A cursor
// decode error ends that term's stream early.
func MergeTopK(terms []MergeTerm, k int) RankedList {
	if k <= 0 {
		return RankedList{}
	}
	candidates := 0
	for _, t := range terms {
		if t.DF > 0 && t.N > 0 {
			candidates += t.DF
		}
	}
	// DF is the list's length wherever a list is scored whole, which bounds
	// the hits; the heap grows past the hint if a caller's DF is smaller.
	// One buffer holds every cursor's doc scratch, then the heap's slots.
	scratch := make([]byte, (len(terms)+min(k, candidates))*docSlot)
	top := newTopK(k, scratch[len(terms)*docSlot:])

	// live holds the terms that still have a head, in terms order; an
	// exhausted term is cut out so the loop below never looks at it again.
	live := make([]mergeState, 0, len(terms))
	for i, t := range terms {
		s := mergeState{cur: t.List.CursorWith(scratch[i*docSlot : (i+1)*docSlot]), wq: t.WQ}
		if t.DF > 0 && t.N > 0 {
			s.idf = math.Log(float64(t.N) / float64(t.DF))
		}
		if s.advance() {
			live = append(live, s)
		}
	}
	var eqBuf [8]int
	eq := eqBuf[:0] // the live terms whose head is the current doc
	for len(live) > 1 {
		// One comparison pass finds the smallest head and every term sharing
		// it, ascending — the addition order of the per-term accumulator.
		m := 0
		eq = append(eq[:0], 0)
		for i := 1; i < len(live); i++ {
			switch c := cmpHeads(&live[i], &live[m]); {
			case c < 0:
				m = i
				eq = append(eq[:0], i)
			case c == 0:
				eq = append(eq, i)
			}
		}
		s := &live[eq[0]]
		dot, docLen := s.contribution(), s.docLen
		for _, i := range eq[1:] {
			s = &live[i]
			dot += s.contribution()
			docLen = s.docLen
		}
		// The head aliases a cursor's scratch: offer it before that cursor moves.
		offer(&top, live[m].doc, Similarity(dot, docLen))
		// Advance back to front so cutting an exhausted term out does not
		// shift the positions still to visit.
		for n := len(eq) - 1; n >= 0; n-- {
			if i := eq[n]; !live[i].advance() {
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
	// One term left: its heads are the remaining documents, in order.
	if len(live) == 1 {
		s := &live[0]
		for ok := true; ok; ok = s.advance() {
			offer(&top, s.doc, Similarity(s.contribution(), s.docLen))
		}
	}
	return top.ranked()
}
