// Package ir implements the information-retrieval mathematics of the SPRITE
// paper (§4 and §6): TF·IDF term weighting, the simplified vector-space
// similarity of Lee, Chuang and Seamons ("Document ranking and the
// vector-space model", IEEE Software 1997 — the paper's formula (2)), ranked
// lists, and the precision/recall evaluation metrics.
package ir

import (
	"math"
	"slices"

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
// not change in a PR that claims a gain; ROADMAP item 5 re-points those
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

// rankAfter reports whether x belongs strictly after y in rank order —
// the same total order Sort uses (descending score, ascending DocID).
func rankAfter(x, y Hit) bool {
	if x.Score != y.Score {
		return x.Score < y.Score
	}
	return x.Doc > y.Doc
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
	t := topkHeap{h: make(RankedList, 0, k), k: k}
	for i := range a.entries {
		e := &a.entries[i]
		t.offer(Hit{Doc: e.doc, Score: Similarity(e.dot, e.docLen)})
	}
	return t.ranked()
}

// topkHeap selects the k best hits under rankAfter's total order. The heap
// keeps the worst hit at the root, so each candidate is compared against the
// worst hit currently kept; (score, doc) being a strict total order makes
// the selected set and its final order independent of offer order.
type topkHeap struct {
	h RankedList
	k int
}

func (t *topkHeap) siftDown(i int) {
	h := t.h
	for {
		w := i
		if l := 2*i + 1; l < len(h) && rankAfter(h[l], h[w]) {
			w = l
		}
		if r := 2*i + 2; r < len(h) && rankAfter(h[r], h[w]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// offer considers one candidate, keeping it only if fewer than k hits are
// held or it beats the worst kept hit.
func (t *topkHeap) offer(hit Hit) {
	if len(t.h) < t.k {
		t.h = append(t.h, hit)
		for c := len(t.h) - 1; c > 0; { // sift up
			p := (c - 1) / 2
			if !rankAfter(t.h[c], t.h[p]) {
				break
			}
			t.h[c], t.h[p] = t.h[p], t.h[c]
			c = p
		}
		return
	}
	if rankAfter(t.h[0], hit) { // better than the worst kept hit
		t.h[0] = hit
		t.siftDown(0)
	}
}

// ranked finalizes the selection in rank order.
func (t *topkHeap) ranked() RankedList {
	t.h.Sort()
	return t.h
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

// F1 returns the harmonic mean of precision and recall, 0 if both are 0.
func (m Metrics) F1() float64 {
	if m.Precision+m.Recall == 0 {
		return 0
	}
	return 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
}

// AveragePrecision computes the average of the precision values at each rank
// where a relevant document appears in the returned list, normalized by the
// total number of relevant documents — the per-query component of MAP.
// An empty relevant set yields 0.
func AveragePrecision(returned []index.DocID, relevant map[index.DocID]bool) float64 {
	if len(relevant) == 0 {
		return 0
	}
	hits := 0
	sum := 0.0
	seen := make(map[index.DocID]bool, len(returned))
	for i, d := range returned {
		if relevant[d] && !seen[d] {
			seen[d] = true
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(len(relevant))
}

// MeanAveragePrecision averages per-query AP values (MAP). Empty input
// yields 0.
func MeanAveragePrecision(aps []float64) float64 {
	if len(aps) == 0 {
		return 0
	}
	s := 0.0
	for _, ap := range aps {
		s += ap
	}
	return s / float64(len(aps))
}
