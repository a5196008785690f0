package index

import (
	"fmt"
	"iter"
	"sort"
	"unsafe"
)

// Store is the index API the compressed Inverted and its uncompressed twin
// Plain share, so the property tests can drive both through one sequence of
// operations. Reads stream: All yields postings in ascending doc-ID order.
type Store interface {
	Add(term string, p Posting)
	Remove(term string, doc DocID) bool
	All(term string) iter.Seq[Posting]
	DocFreq(term string) int
	Terms() []string
	NumTerms() int
	NumDocs() int
	NumPostings() int
}

var _ Store = (*Inverted)(nil)

// MemSize returns the in-memory footprint of the posting as a []Posting
// element: the struct itself plus the string bytes it points at — the
// per-posting cost the block representation is measured against.
func (p Posting) MemSize() int {
	return int(unsafe.Sizeof(Posting{})) + len(p.Doc) + len(p.Owner) + len(p.Sketch)
}

// Plain is the uncompressed reference implementation of Store: per-term
// []Posting slices kept in ascending doc-ID order, mutated copy-on-write.
// It is the twin the property tests pin the compressed Inverted to — same
// served order, same semantics, ~65 bytes per posting instead of ~8.
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
// (term, doc) pair. The stored slice is never modified in place, so a
// sequence All returned keeps iterating an immutable snapshot.
func (px *Plain) Add(term string, p Posting) {
	list := px.lists[term]
	// Ascending bulk-load fast path: a doc sorting after the current tail
	// appends without the O(n) copy, mirroring the compressed index's
	// seal-and-append path. Snapshot safety holds because existing elements
	// are never modified — an outstanding All snapshot has a fixed length,
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

// removeDoc deletes every posting of doc from st, one Remove per term as
// unsharing a document does, and returns the number removed.
func removeDoc(st Store, doc DocID) int {
	removed := 0
	for _, term := range st.Terms() {
		if st.Remove(term, doc) {
			removed++
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

// DocFreq returns the number of documents whose postings list contains term.
func (px *Plain) DocFreq(term string) int { return len(px.lists[term]) }

// Has reports whether term has at least one posting.
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
