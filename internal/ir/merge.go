package ir

import (
	"bytes"
	"math"

	"github.com/spritedht/sprite/internal/index"
)

// This file is the production scorer: a k-way merge over the query terms'
// compressed cursors. Every cursor yields its postings in ascending doc-ID
// order, so all of a document's contributions are adjacent in the merged
// stream — the document can be scored completely and offered to a bounded
// top-k heap the moment the merge reaches it. No per-document map entry or
// materialized string is ever built for documents that do not reach the
// top k; a query's working state is the cursors plus k hits.
//
// The rankings are bit-identical to accumulating the same streams term by
// term: each document's dot product sums its per-term contributions in query
// term order (exactly the additions Accumulate would perform, in the same
// order), and (score, doc) is a strict total order, so top-k selection is
// insensitive to the order documents are offered in.

// MergeTerm is one query term's input to MergeTopK: a cursor over the
// term's postings plus the term's scoring inputs.
type MergeTerm struct {
	Cursor *index.Cursor
	WQ     float64 // query-side weight of the term
	N      int     // collection size for the IDF factor
	DF     int     // term document frequency
}

// mergeState is one term's position in the merge: the head posting decoded
// off its cursor. doc aliases the cursor's scratch buffer and is valid until
// the cursor's next advance.
type mergeState struct {
	cur          *index.Cursor
	wq, idf      float64
	doc          []byte
	freq, docLen int
}

// advance decodes the term's next head and reports whether there was one.
func (s *mergeState) advance() (ok bool) {
	s.doc, s.freq, s.docLen, ok = s.cur.NextBytes()
	return ok
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
	// live holds the terms that still have a head, in terms order; an
	// exhausted term is cut out so the loop below never looks at it again.
	live := make([]mergeState, 0, len(terms))
	candidates := 0
	for _, t := range terms {
		s := mergeState{cur: t.Cursor, wq: t.WQ}
		if t.DF > 0 && t.N > 0 {
			s.idf = math.Log(float64(t.N) / float64(t.DF))
			candidates += t.DF
		}
		if s.advance() {
			live = append(live, s)
		}
	}
	// DF is the list's length wherever a list is scored whole, which bounds
	// the hits; the heap grows past the hint if a caller's DF is smaller.
	top := topkHeap{h: make(RankedList, 0, min(k, candidates)), k: k}
	eq := make([]int, 0, len(live)) // the live terms whose head is the current doc
	for len(live) > 0 {
		// One comparison pass finds the smallest head and every term sharing
		// it, ascending — the addition order of the per-term accumulator.
		minDoc := live[0].doc
		eq = append(eq[:0], 0)
		for i := 1; i < len(live); i++ {
			switch c := bytes.Compare(live[i].doc, minDoc); {
			case c < 0:
				minDoc = live[i].doc
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
		// minDoc aliases a cursor's scratch: offer it before that cursor moves.
		top.offerKey(minDoc, Similarity(dot, docLen))
		// Advance back to front so cutting an exhausted term out does not
		// shift the positions still to visit.
		for n := len(eq) - 1; n >= 0; n-- {
			if i := eq[n]; !live[i].advance() {
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
	return top.ranked()
}

// offerKey is offer for a candidate whose doc ID is still raw bytes: the
// string is materialized only when the candidate is actually kept, so the
// merge allocates nothing for the documents a query discards. The
// keep-or-skip decision mirrors rankAfter exactly, including its treatment
// of equal and unordered (NaN) scores.
func (t *topkHeap) offerKey(doc []byte, score float64) {
	if len(t.h) < t.k {
		t.offer(Hit{Doc: index.DocID(doc), Score: score})
		return
	}
	w := t.h[0]
	better := false
	if w.Score != score {
		better = w.Score < score
	} else {
		better = stringAfterBytes(w.Doc, doc)
	}
	if !better {
		return
	}
	t.h[0] = Hit{Doc: index.DocID(doc), Score: score}
	t.siftDown(0)
}

// stringAfterBytes reports whether s sorts lexicographically after b — the
// doc tie-break of rankAfter, evaluated without converting b to a string.
func stringAfterBytes(s index.DocID, b []byte) bool {
	n := min(len(s), len(b))
	for i := 0; i < n; i++ {
		if s[i] != b[i] {
			return s[i] > b[i]
		}
	}
	return len(s) > len(b)
}
