package index

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"github.com/spritedht/sprite/internal/chordid"
)

// Keyspace scans and digests over the block store. An indexing peer's
// authority is a keyspace arc, not a term list, so the repair layer needs to
// ask "which of your terms hash into this arc?" and "summarize them so a
// replica holder can cheaply tell whether its copy diverged" without
// decoding every block.

// TermsInArc returns, sorted, the terms whose DHT key (chordid.HashKey)
// falls inside arc. The scan is linear in the number of distinct terms but
// never touches postings blocks.
func (ix *Inverted) TermsInArc(arc chordid.Arc) []string {
	out := make([]string, 0, 8)
	for t := range ix.lists {
		if arc.ContainsKey(t) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// TermDigest returns a 64-bit digest of one term's posting list: an FNV-1a
// fold over (doc, owner, freq, doclen) in block order. Two stores hold the
// same list for a term iff their digests match (up to hash collision); the
// digest of an absent term is 0, so "missing" and "present" never compare
// equal (an FNV fold over any input is nonzero in practice, and the empty
// list is represented by absence).
func (ix *Inverted) TermDigest(term string) uint64 {
	if ix.lists[term].n == 0 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for p := range ix.All(term) {
		h.Write([]byte(p.Doc))
		h.Write([]byte{0})
		h.Write([]byte(p.Owner))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint32(buf[0:4], uint32(p.Freq))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(p.DocLen))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ArcDigests returns the per-term digests of every term in arc, keyed by
// term. It is the leaf layer the repair package's Merkle summaries fold
// over.
func (ix *Inverted) ArcDigests(arc chordid.Arc) map[string]uint64 {
	out := make(map[string]uint64)
	for _, t := range ix.TermsInArc(arc) {
		out[t] = ix.TermDigest(t)
	}
	return out
}
