// Package ir implements the information-retrieval mathematics of the SPRITE
// paper (§4 and §6): TF·IDF term weighting, the simplified vector-space
// similarity of Lee, Chuang and Seamons ("Document ranking and the
// vector-space model", IEEE Software 1997 — the paper's formula (2)), ranked
// lists, and the precision/recall evaluation metrics.
package ir

import (
	"math"
	"slices"
	"strings"

	"github.com/spritedht/sprite/internal/index"
)

// LargeN is the surrogate corpus size used by distributed rankers. The paper
// observes (§4) that the true N cannot be known in a P2P network, but any
// sufficiently large constant preserves the ranking as long as every peer
// uses the same value.
const LargeN = 1 << 30

// Weight returns the TF·IDF weight w_ik = ntf · log(N/df) (§4). A zero df
// yields weight 0 (the term matches no document and contributes nothing).
func Weight(normFreq float64, n, df int) float64 {
	if df <= 0 || n <= 0 {
		return 0
	}
	return normFreq * math.Log(float64(n)/float64(df))
}

// QueryWeight returns the weight of a query term: the query's term frequency
// normalized by query length, times the same IDF factor. Queries are short,
// so tf is almost always 1/|Q|.
func QueryWeight(freqInQuery, queryLen, n, df int) float64 {
	if queryLen == 0 {
		return 0
	}
	return Weight(float64(freqInQuery)/float64(queryLen), n, df)
}

// Similarity computes the Lee et al. "second method" similarity (§4):
//
//	sim(Q, D) = Σ_j w_Q,j · w_D,j / sqrt(|D|)
//
// where |D| is the number of terms in the document. dot is the accumulated
// numerator; docLen is |D|.
func Similarity(dot float64, docLen int) float64 {
	if docLen <= 0 {
		return 0
	}
	return dot / math.Sqrt(float64(docLen))
}

// Hit is one entry of a ranked list.
type Hit struct {
	Doc   index.DocID
	Score float64
}

// RankedList is a descending-score list of hits. Ties break by DocID so
// rankings are deterministic across runs and platforms.
type RankedList []Hit

// Sort orders the list by descending score, then ascending DocID. The
// (score, doc) pair is a strict total order over distinct documents, so any
// correct sort produces the same permutation; slices.SortFunc just gets
// there with fewer comparator calls than sort.Slice.
func (rl RankedList) Sort() {
	slices.SortFunc(rl, func(a, b Hit) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Doc < b.Doc:
			return -1
		case a.Doc > b.Doc:
			return 1
		}
		return 0
	})
}

// Top returns the first k hits (or fewer if the list is shorter). The list
// must already be sorted.
func (rl RankedList) Top(k int) RankedList {
	if k > len(rl) {
		k = len(rl)
	}
	return rl[:k]
}

// Docs returns just the document IDs, in rank order.
func (rl RankedList) Docs() []index.DocID {
	out := make([]index.DocID, len(rl))
	for i, h := range rl {
		out[i] = h.Doc
	}
	return out
}

// Rank returns the 0-based rank of doc, or -1 if absent.
func (rl RankedList) Rank(doc index.DocID) int {
	for i, h := range rl {
		if h.Doc == doc {
			return i
		}
	}
	return -1
}

// Accumulator consolidates per-term partial scores into document scores —
// the querying peer's job in SPRITE (§3: "index entries for the same
// document are consolidated") — from decoded postings. It is the slice loop
// of the paper's baselines (central, eSearch, expansion) and the oracle the
// production scorer, MergeTopK, is pinned against; the query path itself
// never builds one.
//
// Each document keeps a running sum updated in contribution arrival order.
// Float addition is not associative, so the order of the additions is the
// determinism contract: accumulating the same (term, posting) stream in the
// same order always yields the same bits. Documents live in a flat
// arrival-order slice with a position map on the side.
type Accumulator struct {
	pos     map[index.DocID]int32
	entries []accEntry
}

// accEntry is one document's running state: the dot-product sum so far and
// the document length from its latest posting.
type accEntry struct {
	doc    index.DocID
	dot    float64
	docLen int
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{pos: make(map[index.DocID]int32)}
}

// Len reports how many documents hold contributions.
func (a *Accumulator) Len() int { return len(a.entries) }

// Reset empties the accumulator in place, retaining map and slice capacity.
//
// Retained for the benchmark: nothing in the module calls it, but
// bench/api.go pins it and bench/probes.go times it (see Contribution).
func (a *Accumulator) Reset() {
	clear(a.pos)
	a.entries = a.entries[:0]
}

// Accumulate adds the contribution of one (query term, posting) pair.
func (a *Accumulator) Accumulate(doc index.DocID, contribution float64, docLen int) {
	if i, ok := a.pos[doc]; ok {
		e := &a.entries[i]
		e.dot += contribution
		e.docLen = docLen
		return
	}
	a.pos[doc] = int32(len(a.entries))
	a.entries = append(a.entries, accEntry{doc: doc, dot: contribution, docLen: docLen})
}

// Contribution is one (document, partial score) entry of a term's scored
// list, as the query path built them before it merged the compressed
// cursors directly.
//
// Contribution, CollectStream, AccumulateAll, Reset and (outside eval's
// plain-index arm) RankedTop are off every production path. They stay
// exported only because bench/api.go pins them and bench/probes.go times
// them as ir.collect_ns, ir.accumulate_ns and ir.rank_top_us, and bench/ does
// not change in a PR that claims a gain; ROADMAP item 6(c) re-points those
// probes at MergeTopK and deletes them.
type Contribution struct {
	Doc    index.DocID
	Score  float64
	DocLen int
}

// CollectStream scores one term's postings into a contribution slice,
// materializing every posting. dst is appended to and returned. Retained for
// the benchmark (see Contribution).
func CollectStream(cur *index.Cursor, wq float64, n, df int, dst []Contribution) []Contribution {
	for p, ok := cur.Next(); ok; p, ok = cur.Next() {
		dst = append(dst, Contribution{Doc: p.Doc, Score: wq * Weight(p.NormFreq(), n, df), DocLen: p.DocLen})
	}
	return dst
}

// AccumulateAll accumulates a contribution sequence in order. Retained for
// the benchmark (see Contribution).
func (a *Accumulator) AccumulateAll(cs []Contribution) {
	for _, c := range cs {
		a.Accumulate(c.Doc, c.Score, c.DocLen)
	}
}

// Ranked finalizes all documents into a sorted ranked list.
func (a *Accumulator) Ranked() RankedList {
	rl := make(RankedList, 0, len(a.entries))
	for i := range a.entries {
		e := &a.entries[i]
		rl = append(rl, Hit{Doc: e.doc, Score: Similarity(e.dot, e.docLen)})
	}
	rl.Sort()
	return rl
}

// RankedTop returns the k best hits in rank order. It is equivalent to
// Ranked().Top(k) — (score, doc) is a strict total order, so the top-k set
// and its order are unique — but selects through a bounded heap instead of
// sorting every candidate, which matters when a query touches hundreds of
// documents to return ten.
func (a *Accumulator) RankedTop(k int) RankedList {
	if k >= len(a.entries) {
		return a.Ranked()
	}
	if k <= 0 {
		return RankedList{}
	}
	t := newTopK(k, make([]byte, k*docSlot))
	for i := range a.entries {
		e := &a.entries[i]
		offer(&t, []byte(e.doc), Similarity(e.dot, e.docLen))
	}
	return t.ranked()
}

// docSlot is how many doc-ID bytes a heap slot (and a merge cursor's
// scratch) is carved with up front. The corpus's IDs are 8 bytes. Slots and
// cursor scratch are capped at docSlot, so a longer ID moves to a buffer of
// its own by append, never into the region that follows.
const docSlot = 16

// topkHeap selects the k best candidates under rankAfter's total order. The
// heap keeps the worst candidate at the root, so each offer is compared
// against the worst one kept; (score, doc) being a strict total order makes
// the selected set and its final order independent of offer order.
//
// The heap owns its doc bytes: a kept candidate is copied into a slot carved
// from one buffer, and a replacement is copied over the evicted one's slot,
// so an offered doc ID may alias a buffer the caller reuses and selection
// allocates nothing per candidate. ranked cuts the k result strings from one
// allocation.
type topkHeap struct {
	h     []slot
	k     int
	spare []byte // slot storage not yet handed out
}

// slot is one kept candidate.
type slot struct {
	doc   []byte
	score float64
}

// newTopK returns a heap for the k best candidates whose first slots are
// carved from spare, docSlot bytes each; a slot past those is allocated on
// its own.
func newTopK(k int, spare []byte) topkHeap {
	return topkHeap{h: make([]slot, 0, min(k, len(spare)/docSlot)), k: k, spare: spare}
}

// rankAfter reports whether x belongs strictly after y in rank order — the
// total order Sort uses (descending score, ascending doc ID).
func rankAfter(x, y *slot) bool {
	if x.score != y.score {
		return x.score < y.score
	}
	return docAfter(x.doc, y.doc)
}

// offer considers one candidate, keeping it only if fewer than k are held or
// it beats the worst kept one — rankAfter's decision, NaN scores included,
// made before doc is copied anywhere.
func offer(t *topkHeap, doc []byte, score float64) {
	if len(t.h) < t.k {
		var b []byte
		if len(t.spare) >= docSlot {
			b, t.spare = t.spare[:0:docSlot], t.spare[docSlot:]
		}
		t.h = append(t.h, slot{doc: append(b, doc...), score: score})
		for c := len(t.h) - 1; c > 0; { // sift up
			p := (c - 1) / 2
			if !rankAfter(&t.h[c], &t.h[p]) {
				break
			}
			t.h[c], t.h[p] = t.h[p], t.h[c]
			c = p
		}
		return
	}
	w := &t.h[0]
	if w.score != score {
		if !(w.score < score) {
			return
		}
	} else if !docAfter(w.doc, doc) {
		return
	}
	w.doc = w.doc[:0] // a reslice and an append in place write no pointer
	w.doc = append(w.doc, doc...)
	w.score = score
	t.siftDown(0)
}

// docAfter reports whether a sorts lexicographically after b — the doc
// tie-break of rankAfter, also for a candidate that is not in a slot yet.
func docAfter(a, b []byte) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return len(a) > len(b)
}

func (t *topkHeap) siftDown(i int) {
	h := t.h
	for {
		w := i
		if l := 2*i + 1; l < len(h) && rankAfter(&h[l], &h[w]) {
			w = l
		}
		if r := 2*i + 2; r < len(h) && rankAfter(&h[r], &h[w]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// ranked finalizes the selection in rank order. Call it once, after the
// last offer: the hits' doc IDs are cut from one string built here.
func (t *topkHeap) ranked() RankedList {
	n := 0
	for i := range t.h {
		n += len(t.h[i].doc)
	}
	var ids strings.Builder
	ids.Grow(n)
	for i := range t.h {
		ids.Write(t.h[i].doc)
	}
	all := ids.String()
	rl := make(RankedList, len(t.h))
	for i := range t.h {
		d := len(t.h[i].doc)
		rl[i] = Hit{Doc: index.DocID(all[:d]), Score: t.h[i].score}
		all = all[d:]
	}
	rl.Sort()
	return rl
}

// Metrics holds the two standard retrieval-quality measures (§6): with top K
// documents returned, K' of them relevant, and R relevant documents overall,
// precision = K'/K and recall = K'/R.
type Metrics struct {
	Precision float64
	Recall    float64
}

// Evaluate computes precision and recall of the returned list against the
// relevant set. An empty returned list or empty relevant set contributes
// zero to the respective metric rather than NaN. A relevant document counts
// once even if the returned list (pathologically) repeats it, keeping both
// metrics within [0, 1].
func Evaluate(returned []index.DocID, relevant map[index.DocID]bool) Metrics {
	if len(returned) == 0 {
		return Metrics{}
	}
	seen := make(map[index.DocID]bool, len(returned))
	hits := 0
	for _, d := range returned {
		if relevant[d] && !seen[d] {
			seen[d] = true
			hits++
		}
	}
	m := Metrics{Precision: float64(hits) / float64(len(returned))}
	if len(relevant) > 0 {
		m.Recall = float64(hits) / float64(len(relevant))
	}
	return m
}

// MeanMetrics averages a slice of per-query metrics. An empty slice yields
// the zero Metrics.
func MeanMetrics(ms []Metrics) Metrics {
	if len(ms) == 0 {
		return Metrics{}
	}
	var sum Metrics
	for _, m := range ms {
		sum.Precision += m.Precision
		sum.Recall += m.Recall
	}
	return Metrics{
		Precision: sum.Precision / float64(len(ms)),
		Recall:    sum.Recall / float64(len(ms)),
	}
}

// Ratio returns the element-wise ratio of two metric values — the paper
// reports every result "in terms of the ratio of a specific system over the
// centralized system" (§6). A zero denominator yields 0.
func Ratio(system, baseline Metrics) Metrics {
	var out Metrics
	if baseline.Precision > 0 {
		out.Precision = system.Precision / baseline.Precision
	}
	if baseline.Recall > 0 {
		out.Recall = system.Recall / baseline.Recall
	}
	return out
}
