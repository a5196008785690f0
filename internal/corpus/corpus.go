// Package corpus models document collections and query sets. It supplies the
// two things the SPRITE evaluation needs (§6.1): a corpus with global term
// statistics — including the Distribution(t) = Freq(t)·Num(t) metric the
// query generator uses to find "equally important" replacement terms — and a
// synthetic TREC9-like collection generator standing in for the OHSUMED data
// the paper used (see DESIGN.md, substitution 1).
package corpus

import (
	"fmt"
	"sort"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/text"
)

// Document is one shared document, already preprocessed: TF maps each
// (stopped, stemmed) term to its frequency and Length is the total token
// count after preprocessing.
type Document struct {
	ID     index.DocID
	TF     map[string]int
	Length int
}

// NewDocument builds a document directly from a term-frequency map.
func NewDocument(id index.DocID, tf map[string]int) *Document {
	length := 0
	for _, f := range tf {
		length += f
	}
	return &Document{ID: id, TF: tf, Length: length}
}

// NewDocumentFromText runs the analyzer pipeline over raw text.
func NewDocumentFromText(a text.Analyzer, id index.DocID, raw string) *Document {
	tf, length := a.TermFreq(raw)
	return &Document{ID: id, TF: tf, Length: length}
}

// Contains reports whether the document contains term.
func (d *Document) Contains(term string) bool { return d.TF[term] > 0 }

// Terms returns the document's distinct terms in sorted order.
func (d *Document) Terms() []string {
	out := make([]string, 0, len(d.TF))
	for t := range d.TF {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TopTerms returns the k most frequent terms, ties broken alphabetically so
// selection is deterministic — this is the paper's initial term selection
// (§5.2) and eSearch's static selection.
func (d *Document) TopTerms(k int) []string {
	terms := d.Terms()
	sort.SliceStable(terms, func(i, j int) bool {
		fi, fj := d.TF[terms[i]], d.TF[terms[j]]
		if fi != fj {
			return fi > fj
		}
		return terms[i] < terms[j]
	})
	if k > len(terms) {
		k = len(terms)
	}
	return terms[:k]
}

// Query is a keyword query together with its relevance judgments (when
// known). Relevant plays the role of the expert-identified relevant document
// sets that ship with TREC collections.
type Query struct {
	ID       string
	Terms    []string
	Relevant map[index.DocID]bool
}

// Key returns a canonical string form of the query's keyword set, usable for
// hashing and deduplication: sorted terms joined by spaces.
func (q *Query) Key() string {
	terms := append([]string(nil), q.Terms...)
	sort.Strings(terms)
	key := ""
	for i, t := range terms {
		if i > 0 {
			key += " "
		}
		key += t
	}
	return key
}

// Corpus is a document collection with precomputed global statistics.
type Corpus struct {
	docs []*Document
	byID map[index.DocID]*Document

	freq map[string]int // Freq(t): total occurrences of t across the corpus
	num  map[string]int // Num(t): number of documents containing t

	// byDist caches the term list sorted by Distribution for SimilarTerms.
	byDist []string
}

// New builds a corpus and computes its global statistics. Duplicate document
// IDs are rejected — they would silently merge relevance judgments.
func New(docs []*Document) (*Corpus, error) {
	c := &Corpus{
		docs: docs,
		byID: make(map[index.DocID]*Document, len(docs)),
		freq: make(map[string]int),
		num:  make(map[string]int),
	}
	for _, d := range docs {
		if _, dup := c.byID[d.ID]; dup {
			return nil, fmt.Errorf("corpus: duplicate document id %q", d.ID)
		}
		c.byID[d.ID] = d
		for t, f := range d.TF {
			c.freq[t] += f
			c.num[t]++
		}
	}
	c.byDist = make([]string, 0, len(c.freq))
	for t := range c.freq {
		c.byDist = append(c.byDist, t)
	}
	sort.Slice(c.byDist, func(i, j int) bool {
		di, dj := c.distribution(c.byDist[i]), c.distribution(c.byDist[j])
		if di != dj {
			return di < dj
		}
		return c.byDist[i] < c.byDist[j]
	})
	return c, nil
}

// N returns the number of documents.
func (c *Corpus) N() int { return len(c.docs) }

// Docs returns the documents in insertion order. The slice is shared; do not
// mutate.
func (c *Corpus) Docs() []*Document { return c.docs }

// Doc returns the document with the given ID.
func (c *Corpus) Doc(id index.DocID) (*Document, bool) {
	d, ok := c.byID[id]
	return d, ok
}

// DocFreq returns Num(t), the number of documents containing term — the
// exact document frequency a centralized system has (§6).
func (c *Corpus) DocFreq(term string) int { return c.num[term] }

// distribution is the paper's corpus-importance metric
// Distribution(t) = Freq(t) × Num(t) (§6.1 Phase 1).
func (c *Corpus) distribution(term string) int64 {
	return int64(c.freq[term]) * int64(c.num[term])
}

// Terms returns every distinct term in the corpus, ordered by ascending
// Distribution (the order SimilarTerms exploits). The slice is shared; do
// not mutate.
func (c *Corpus) Terms() []string { return c.byDist }

// SimilarTerms returns the s terms whose Distribution is closest to that of
// term, excluding term itself — the paper's replacement-term pool ("we find
// the top S similar terms and choose one of them randomly", §6.1). Ties are
// resolved deterministically. If the corpus has fewer than s other terms,
// all of them are returned.
func (c *Corpus) SimilarTerms(term string, s int) []string {
	if s <= 0 || len(c.byDist) == 0 {
		return nil
	}
	target := c.distribution(term)
	// Locate the insertion point of target in the Distribution-sorted list.
	i := sort.Search(len(c.byDist), func(i int) bool {
		return c.distribution(c.byDist[i]) >= target
	})
	// Expand outward taking whichever neighbor is closer.
	lo, hi := i-1, i
	out := make([]string, 0, s)
	absDiff := func(a, b int64) int64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	for len(out) < s && (lo >= 0 || hi < len(c.byDist)) {
		var pick int
		switch {
		case lo < 0:
			pick = hi
			hi++
		case hi >= len(c.byDist):
			pick = lo
			lo--
		default:
			dLo := absDiff(c.distribution(c.byDist[lo]), target)
			dHi := absDiff(c.distribution(c.byDist[hi]), target)
			if dLo <= dHi {
				pick = lo
				lo--
			} else {
				pick = hi
				hi++
			}
		}
		if c.byDist[pick] == term {
			continue
		}
		out = append(out, c.byDist[pick])
	}
	return out
}
