package ir

import (
	"github.com/spritedht/sprite/internal/sketch"
)

// SketchRanker is the similarity-query counterpart of MergeTopK: a streaming
// top-k selector over candidate documents scored by sketch cosine against a
// query sketch. The query path feeds it straight off postings cursors — doc
// IDs as raw bytes, sketches aliasing immutable block data — through the
// same top-k heap, so only the k IDs finally ranked become strings.
//
// Candidates deduplicate first-wins by doc ID: a document reached through
// several routing terms is scored once, on the sketch its first appearance
// carried. Because (score, doc) is a strict total order, the selected set and
// its order are insensitive to offer order among distinct documents; the
// caller makes the first-appearance choice deterministic by folding terms in
// sorted order (the same discipline the TF·IDF accumulators follow).
type SketchRanker struct {
	query []byte
	seen  map[string]struct{}
	top   topkHeap
}

// NewSketchRanker returns a ranker selecting the k candidates most cosine-
// similar to the serialized query sketch. A k <= 0 ranker discards every
// offer.
func NewSketchRanker(query []byte, k int) *SketchRanker {
	if k < 0 {
		k = 0
	}
	return &SketchRanker{
		query: query,
		seen:  make(map[string]struct{}),
		top:   newTopK(k, make([]byte, k*docSlot)),
	}
}

// Offer considers one candidate document. doc may alias a cursor scratch
// buffer — it is only copied, into a slot the ranker owns, if the candidate
// is kept. A missing or malformed sketch scores 0 (sketch.CosineBytes's
// convention), so such documents rank behind every positively-correlated
// candidate instead of failing the query.
func (r *SketchRanker) Offer(doc, sk []byte) {
	if r.top.k <= 0 {
		return
	}
	if _, dup := r.seen[string(doc)]; dup {
		return
	}
	r.seen[string(doc)] = struct{}{}
	offer(&r.top, doc, sketch.CosineBytes(r.query, sk))
}

// Candidates returns the number of distinct documents offered so far.
func (r *SketchRanker) Candidates() int { return len(r.seen) }

// Ranked finalizes and returns the selection in rank order (descending
// cosine, ties ascending by DocID). Call it once, after the last Offer.
func (r *SketchRanker) Ranked() RankedList { return r.top.ranked() }
