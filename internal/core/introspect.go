package core

import (
	"sort"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file exposes read-only introspection over a running network's
// distributed state — the ground truth invariant checkers (internal/chaos)
// compare against. Everything here reads under the same locks the message
// handlers take, so snapshots are internally consistent as long as the
// caller quiesces mutations (the chaos harness checks between operations).

// IndexEntry is one (indexing peer, term, posting) triple of the global
// index, from either the primary lists or the successor replicas.
type IndexEntry struct {
	Peer    simnet.Addr
	Term    string
	Posting index.Posting
}

// PrimarySnapshot returns every entry of every peer's primary inverted
// index, sorted by (peer, term, doc). Failed peers' in-memory state is
// included — the simulator retains it, exactly like a crashed-but-
// recoverable process — so checkers can reason about what will resurface on
// recovery.
func (n *Network) PrimarySnapshot() []IndexEntry {
	return n.snapshotIndexes(false)
}

// ReplicaSnapshot is PrimarySnapshot over the successor-replica indexes.
func (n *Network) ReplicaSnapshot() []IndexEntry {
	return n.snapshotIndexes(true)
}

func (n *Network) snapshotIndexes(replicas bool) []IndexEntry {
	var out []IndexEntry
	for _, p := range n.Peers() {
		p.indexing.mu.Lock()
		ix := p.indexing.ix
		if replicas {
			ix = p.indexing.replicas
		}
		for _, term := range ix.Terms() {
			for posting := range ix.All(term) {
				out = append(out, IndexEntry{Peer: p.Addr(), Term: term, Posting: posting})
			}
		}
		p.indexing.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		if a.Term != b.Term {
			return a.Term < b.Term
		}
		return a.Posting.Doc < b.Posting.Doc
	})
	return out
}

// ServedPostings returns what the indexing peer at addr would serve for term
// right now: the primary list, or the replica fallback (§7) when the primary
// is empty. The boolean mirrors getPostingsResp.FromReplica. It reproduces
// indexingState.postings without a network call, so an oracle can predict a
// search's inputs from ground truth.
func (n *Network) ServedPostings(addr simnet.Addr, term string) ([]index.Posting, bool, bool) {
	p, ok := n.peer(addr)
	if !ok {
		return nil, false, false
	}
	resp := p.indexing.postings(term)
	return resp.Postings.Slice(), resp.FromReplica, true
}

// HistoryMultiset returns, per peer, the multiset of cached queries keyed by
// their canonical form (sorted, space-joined terms). Two networks that
// processed the same workload must agree on these multisets regardless of
// arrival interleaving — the cache-transparency and parallel-determinism
// invariants check exactly that.
func (n *Network) HistoryMultiset() map[simnet.Addr]map[string]int {
	out := make(map[simnet.Addr]map[string]int)
	for _, p := range n.Peers() {
		p.indexing.mu.Lock()
		if len(p.indexing.history) > 0 {
			m := make(map[string]int, len(p.indexing.history))
			for _, sq := range p.indexing.history {
				m[canonicalQuery(sq.terms)]++
			}
			out[p.Addr()] = m
		}
		p.indexing.mu.Unlock()
	}
	return out
}

// DocIndex is the owner-side view of one shared document's global index
// state.
type DocIndex struct {
	// Owner is the owner peer's address.
	Owner simnet.Addr
	// Terms are the current global index terms, sorted.
	Terms []string
	// PublishedAt maps each indexed term to the peer the owner last
	// successfully published it to — where the primary entry lives.
	PublishedAt map[string]simnet.Addr
	// Banned are the terms retired by the hot-term advisory, sorted.
	Banned []string
	// Stale maps terms to peers that may still hold a withdrawn copy
	// (failed migration withdrawals pending retry).
	Stale map[string][]simnet.Addr
}

// DocIndexInfo returns the owner's view of doc's index state, or false if
// the document is not shared.
func (n *Network) DocIndexInfo(doc index.DocID) (DocIndex, bool) {
	n.mu.RLock()
	p, ok := n.ownerOf[doc]
	n.mu.RUnlock()
	if !ok {
		return DocIndex{}, false
	}
	p.mu.Lock()
	st := p.owned[doc]
	p.mu.Unlock()
	if st == nil {
		return DocIndex{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	di := DocIndex{
		Owner:       p.Addr(),
		PublishedAt: make(map[string]simnet.Addr, len(st.publishedAt)),
	}
	for t := range st.indexed {
		di.Terms = append(di.Terms, t)
	}
	sort.Strings(di.Terms)
	for t, a := range st.publishedAt {
		di.PublishedAt[t] = a
	}
	for t := range st.banned {
		di.Banned = append(di.Banned, t)
	}
	sort.Strings(di.Banned)
	if len(st.stale) > 0 {
		di.Stale = make(map[string][]simnet.Addr, len(st.stale))
		for t, addrs := range st.stale {
			di.Stale[t] = append([]simnet.Addr(nil), addrs...)
		}
	}
	return di, true
}

// BannedTerms returns the hot-term-advisory bans for doc, sorted, or nil if
// the document is not shared (or has none).
func (n *Network) BannedTerms(doc index.DocID) []string {
	di, ok := n.DocIndexInfo(doc)
	if !ok {
		return nil
	}
	return di.Banned
}

// ReplicaLocsAt returns the replica locations the indexing peer at addr has
// recorded for (term, doc) — the push set the holder's replicateDrop will fan
// out to when the entry is withdrawn. For a stale-listed holder, these are
// replicas whose withdrawal is transitively pending: the owner only knows the
// holder owes a withdrawal, and the holder's record is what reaches them.
func (n *Network) ReplicaLocsAt(addr simnet.Addr, term string, doc index.DocID) []simnet.Addr {
	p, ok := n.peer(addr)
	if !ok {
		return nil
	}
	p.indexing.mu.Lock()
	defer p.indexing.mu.Unlock()
	return append([]simnet.Addr(nil), p.indexing.replicaLocs[term][doc]...)
}

// RelocatePrimaryEntry forcibly moves one primary entry from one indexing
// peer to another and rewrites the document owner's holder-of-record to
// match — a placement corruption that is invisible to the ledger checker
// (the owner's record and the entry still agree) but strands the entry on a
// peer the overlay never routes the term to. It is a fault-injection hook
// for correctness testing: the chaos harness's mutation tests use it to
// verify the stranded-entry invariant actually bites. Returns whether the
// entry existed and was moved.
func (n *Network) RelocatePrimaryEntry(from, to simnet.Addr, term string, doc index.DocID) bool {
	src, ok := n.peer(from)
	if !ok {
		return false
	}
	dst, ok := n.peer(to)
	if !ok {
		return false
	}
	var moved *index.Posting
	src.indexing.mu.Lock()
	for posting := range src.indexing.ix.All(term) {
		if posting.Doc == doc {
			p := posting
			moved = &p
			src.indexing.ix.Remove(term, doc)
			break
		}
	}
	src.indexing.mu.Unlock()
	if moved == nil {
		return false
	}
	dst.indexing.mu.Lock()
	dst.indexing.ix.Add(term, *moved)
	dst.indexing.mu.Unlock()
	// Keep the owner's ledger consistent with the corrupted placement so
	// only the placement invariant can catch it.
	if owner, ok := n.peer(simnet.Addr(moved.Owner)); ok {
		owner.mu.Lock()
		st := owner.owned[doc]
		owner.mu.Unlock()
		if st != nil {
			st.mu.Lock()
			if st.publishedAt[term] == from {
				st.publishedAt[term] = to
			}
			st.mu.Unlock()
		}
	}
	return true
}

// DropReplicaEntry silently removes one replica entry at addr, simulating
// replica loss the holder never reports (bit rot, a crash that outlives the
// process's state). It is a fault-injection hook for correctness testing —
// the chaos harness's mutation tests use it to verify that the invariant
// checkers actually catch replica divergence. It returns whether the entry
// existed.
func (n *Network) DropReplicaEntry(addr simnet.Addr, term string, doc index.DocID) bool {
	p, ok := n.peer(addr)
	if !ok {
		return false
	}
	p.indexing.mu.Lock()
	defer p.indexing.mu.Unlock()
	for posting := range p.indexing.replicas.All(term) {
		if posting.Doc == doc {
			p.indexing.replicas.Remove(term, doc)
			return true
		}
	}
	return false
}
