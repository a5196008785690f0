package index

import (
	"fmt"
	"iter"
	"sort"
)

// Plain is the uncompressed reference implementation of Store: per-term
// []Posting slices kept in ascending doc-ID order, mutated copy-on-write.
// It exists for the property tests that pin the compressed Inverted to
// identical behavior, and as the baseline arm of the postings benchmark —
// same served order, same semantics, ~65 bytes per posting instead of ~8.
type Plain struct {
	lists    map[string][]Posting
	docs     map[DocID]int // postings held per document
	postings int
}

// NewPlain returns an empty reference index.
func NewPlain() *Plain {
	return &Plain{
		lists: make(map[string][]Posting),
		docs:  make(map[DocID]int),
	}
}

// Add inserts a posting for term, replacing any earlier posting for the same
// (term, doc) pair. The stored slice is never modified in place, so slices
// returned by PostingsSlice remain immutable snapshots.
func (px *Plain) Add(term string, p Posting) {
	list := px.lists[term]
	// Ascending bulk-load fast path: a doc sorting after the current tail
	// appends without the O(n) copy, mirroring the compressed index's
	// seal-and-append path. Snapshot safety holds because existing elements
	// are never modified — an outstanding PostingsSlice has a fixed length,
	// and append only ever writes beyond it.
	if len(list) == 0 || list[len(list)-1].Doc < p.Doc {
		px.lists[term] = append(list, p)
		px.postings++
		px.docs[p.Doc]++
		return
	}
	i, found := searchPostings(list, p.Doc)
	nl := make([]Posting, len(list), len(list)+1)
	copy(nl, list)
	if found {
		nl[i] = p
	} else {
		nl = append(nl, Posting{})
		copy(nl[i+1:], nl[i:])
		nl[i] = p
		px.postings++
		px.docs[p.Doc]++
	}
	px.lists[term] = nl
}

// Remove deletes the posting for (term, doc) if present and reports whether
// it was found.
func (px *Plain) Remove(term string, doc DocID) bool {
	list := px.lists[term]
	i, found := searchPostings(list, doc)
	if !found {
		return false
	}
	px.postings--
	if px.docs[doc]--; px.docs[doc] == 0 {
		delete(px.docs, doc)
	}
	if len(list) == 1 {
		delete(px.lists, term)
		return true
	}
	nl := make([]Posting, 0, len(list)-1)
	nl = append(nl, list[:i]...)
	nl = append(nl, list[i+1:]...)
	px.lists[term] = nl
	return true
}

// RemoveDoc deletes every posting belonging to doc and returns the number
// removed.
func (px *Plain) RemoveDoc(doc DocID) int {
	held := px.docs[doc]
	if held == 0 {
		return 0
	}
	removed := 0
	for term := range px.lists {
		if px.Remove(term, doc) {
			if removed++; removed == held {
				break
			}
		}
	}
	return removed
}

// All iterates term's postings in ascending doc-ID order over an immutable
// snapshot.
func (px *Plain) All(term string) iter.Seq[Posting] {
	list := px.lists[term]
	return func(yield func(Posting) bool) {
		for _, p := range list {
			if !yield(p) {
				return
			}
		}
	}
}

// PostingsSlice returns term's postings (nil if unindexed). The slice is an
// immutable copy-on-write snapshot, shared with the index — do not modify.
func (px *Plain) PostingsSlice(term string) []Posting { return px.lists[term] }

// DocFreq returns the number of documents whose postings list contains term.
func (px *Plain) DocFreq(term string) int { return len(px.lists[term]) }

// Has reports whether term has at least one posting.
func (px *Plain) Has(term string) bool { return len(px.lists[term]) > 0 }

// Terms returns all indexed terms in sorted order.
func (px *Plain) Terms() []string {
	out := make([]string, 0, len(px.lists))
	for t := range px.lists {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// NumTerms returns the number of distinct indexed terms.
func (px *Plain) NumTerms() int { return len(px.lists) }

// NumDocs returns the number of distinct documents currently holding at
// least one posting.
func (px *Plain) NumDocs() int { return len(px.docs) }

// NumPostings returns the total number of postings across all terms.
func (px *Plain) NumPostings() int { return px.postings }

// String summarizes the index for logs.
func (px *Plain) String() string {
	return fmt.Sprintf("plain{terms=%d docs=%d postings=%d}",
		px.NumTerms(), px.NumDocs(), px.NumPostings())
}

var _ Store = (*Plain)(nil)
