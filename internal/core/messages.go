package core

import (
	"strings"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/repair"
	"github.com/spritedht/sprite/internal/simnet"
)

// SPRITE's application-level message types, dispatched by chord.Node to the
// owning Peer. Sizes are simulated wire sizes for bandwidth accounting.
const (
	// msgPublish carries (term, posting) pairs from an owner peer to the
	// indexing peer responsible for the terms.
	msgPublish = "sprite.publish"
	// msgUnpublish removes a (term, doc) posting — learning retired the term.
	msgUnpublish = "sprite.unpublish"
	// msgGetPostings retrieves a term's inverted list during query
	// processing; it carries the full query so the indexing peer can cache
	// it in its history (§3).
	msgGetPostings = "sprite.get_postings"
	// msgCacheQuery inserts a query into an indexing peer's history without
	// retrieving postings (the training-set insertion of §6.2).
	msgCacheQuery = "sprite.cache_query"
	// msgPoll is the owner peer's periodic index-update poll: per document it
	// announces all global index terms and asks, per polled term, for the new
	// queries for which this peer holds the closest term (§3).
	msgPoll = "sprite.poll"
	// msgReplica pushes a copy of an index entry to a successor peer (§7).
	msgReplica = "sprite.replica"
	// msgReplicaDrop removes a replicated entry.
	msgReplicaDrop = "sprite.replica_drop"

	// msgHandoff batch-installs primary index entries at a peer whose arc now
	// covers them — the first round of the join/leave handoff protocol (see
	// internal/core/repair.go). The receiver serves them immediately but the
	// sender remains their holder of record until relocation commits.
	msgHandoff = "sprite.repair.handoff"
	// msgHandoffDrop reverts one entry of an aborted handoff: the owner could
	// not be told about the move, so the receiver's copy must go before the
	// sender deletes nothing.
	msgHandoffDrop = "sprite.repair.handoff_drop"
	// msgRelocate asks a document's owner to rewrite its holder-of-record
	// (publishedAt) for one term, compare-and-swap style: the flip commits
	// only if the owner still believes the entry lives at the sender.
	msgRelocate = "sprite.relocate"
	// msgRepairDigest opens an anti-entropy exchange: the primary holder of
	// an arc sends its compact Merkle summary; the replica holder answers
	// with the per-term digests of the divergent buckets (or "in sync").
	msgRepairDigest = "sprite.repair.digest"
	// msgRepairPush closes an anti-entropy exchange: the primary replaces the
	// divergent terms' replica lists wholesale.
	msgRepairPush = "sprite.repair.push"
	// msgReplicaRetire tells a primary holder that a gracefully departing
	// peer no longer holds the replicas recorded against it, so future
	// withdrawals stop addressing a peer that left for good.
	msgReplicaRetire = "sprite.repair.retire"
)

// publishReq carries (term, posting) pairs from one owner peer to one
// indexing peer: a single pair when it is routed by the term's key, every pair
// bound for the peer when the owner addresses it from its own records.
type publishReq struct {
	Items []publishItem
	// CheckArc asks the receiver to check each item's key against its own
	// arc (chord.Node.Serves) and refuse what it does not serve: set when the
	// owner picked the receiver itself rather than letting the ring route.
	CheckArc bool
}

type publishItem struct {
	Term    string
	Posting index.Posting
}

// size is the request's simulated wire size: each item's term and posting,
// so a batch of one costs what a single publish always has.
func (r publishReq) size() int {
	n := 0
	for _, it := range r.Items {
		n += len(it.Term) + it.Posting.WireSize()
	}
	return n
}

// publishResp lists, by position in the request, the items the receiver
// refused because their keys are outside its arc; the rest it indexed.
type publishResp struct {
	Refused []int
}

type unpublishReq struct {
	Term string
	Doc  index.DocID
}

type unpublishResp struct {
	// StaleReplicas are replica holders the indexing peer failed to reach
	// while withdrawing the entry's copies. Without reporting them, a drop
	// lost to a crashed holder would orphan that replica forever: the holder
	// list is consumed by the withdrawal, and no later operation addresses
	// the entry at that peer. The owner queues these on the document's stale
	// list and retries them like any other stale withdrawal.
	StaleReplicas []simnet.Addr
}

// getPostingsReq asks one indexing peer for inverted lists: a single term's
// when it is routed by the term's key, every term of the query the querier's
// own node names the peer for when the querier addresses it directly.
type getPostingsReq struct {
	Terms []string
	// Query is the complete keyword set of the query being processed; the
	// indexing peer caches it for future learning when Record is set, once
	// per term it serves.
	Query []string
	// Record controls whether the indexing peer adds Query to its history.
	// Normal query processing records; measurement probes do not.
	Record bool
	// CheckArc is publishReq's: refuse the terms whose keys are not this
	// peer's to serve.
	CheckArc bool
}

// size is the request's simulated wire size: the terms, a length byte for
// each after the first, and the query — or one byte without one — so a
// request for one term costs what a single fetch always has.
func (r getPostingsReq) size() int {
	n := len(r.Terms) - 1 + max(sizeTerms(r.Query), 1)
	for _, t := range r.Terms {
		n += len(t)
	}
	return n
}

// getPostingsResp answers a getPostingsReq term by term in request order.
type getPostingsResp struct {
	Items []postingsList
}

// size is the reply's simulated wire size: a byte for the count, a served
// list its encoded bytes and 7 more for its framing, frequency and flags, and
// a refused one the 5 bytes of its flag and empty fields. A reply of one list
// costs what a single fetch's reply always has.
func (r getPostingsResp) size() int {
	n := 1
	for _, it := range r.Items {
		if it.Refused {
			n += 5
			continue
		}
		n += it.Postings.Size() + 7
	}
	return n
}

// postingsList is one term's answer to a getPostingsReq.
type postingsList struct {
	// Refused reports that the term's key is outside the answering peer's
	// arc (a CheckArc request only); nothing else is set.
	Refused bool
	// Postings is the term's inverted list in its block-compressed form:
	// the indexing peer's encoded blocks travel as-is and the querier
	// decodes them lazily, one posting at a time, through a cursor.
	Postings index.Encoded
	// IndexedDF is n'_k — the number of documents that chose the term as a
	// global index term (§4).
	IndexedDF int
	// FromReplica reports that the primary had no entries and a successor
	// replica answered instead (§7).
	FromReplica bool
}

type cacheQueryReq struct {
	Query []string
}

// pollReq is an owner peer's index-update poll of one indexing peer: for
// each document, its global index terms once and the terms to poll with their
// watermarks. One document with one term is a single (document, term) poll.
type pollReq struct {
	Docs []pollDoc
	// CheckArc is publishReq's: refuse the items whose keys are not this
	// peer's to serve.
	CheckArc bool
}

type pollDoc struct {
	Doc index.DocID
	// DocTerms lists all current global index terms of the document, so the
	// indexing peer can decide for which cached queries it is the
	// closest-term peer (§3's de-duplication).
	DocTerms []string
	Terms    []pollTerm
}

type pollTerm struct {
	Term string
	// Since is the history watermark from the previous poll; only newer
	// queries are returned (Algorithm 1's incremental query set).
	Since uint64
}

// size is the poll's simulated wire size. One (document, term) item costs
// what a single poll always has — the term, the document's terms and an
// 8-byte watermark — and every further document or term adds what the codec
// writes for it: a document its ID, terms and two list counts, a term itself,
// its length byte and a watermark varint of about two bytes.
func (r pollReq) size() int {
	n, terms := 8, 0
	for i, d := range r.Docs {
		n += sizeTerms(d.DocTerms)
		if i > 0 {
			n += len(d.Doc) + 3
		}
		for _, t := range d.Terms {
			n += len(t.Term)
		}
		terms += len(d.Terms)
	}
	return n + 3*max(terms-1, 0)
}

// pollResp answers a pollReq item by item, document by document and term by
// term in request order.
type pollResp struct {
	Items []pollResult
}

// size is the reply's simulated wire size. One served item costs what a
// single poll's reply always has — its queries' terms and 8 bytes — and each
// further item its queries' terms and 6 bytes, or a byte if refused.
func (r pollResp) size() int {
	n := 2
	for _, it := range r.Items {
		n++
		if !it.Refused {
			n += 5
			for _, q := range it.Queries {
				n += sizeTerms(q)
			}
		}
	}
	return n
}

type pollResult struct {
	// Refused reports that the term's key is outside the answering peer's
	// arc (a CheckArc request only); nothing else is set.
	Refused  bool
	Queries  [][]string
	NewSince uint64
	// IndexedDF is the polled term's current indexed document frequency at
	// this peer — the signal behind the §7 hot-term advisory: a very high
	// value means the term's IDF is negligible and owners are better off
	// spending the index slot elsewhere.
	IndexedDF int
}

type replicaReq struct {
	Term    string
	Posting index.Posting
}

type replicaDropReq struct {
	Term string
	Doc  index.DocID
}

// handoffEntry is one primary index entry in flight during a join/leave
// handoff: the posting plus the sender's recorded replica locations, which
// transfer with the entry so the new holder's withdrawals keep reaching
// every copy ever pushed.
type handoffEntry struct {
	Term        string
	Posting     index.Posting
	ReplicaLocs []simnet.Addr
}

type handoffReq struct {
	Entries []handoffEntry
}

// handoffResp reports, per entry of the request, whether the receiver's
// primary index already held the (term, doc) before the install. A
// pre-existing entry means the install merged with state the receiver owned
// in its own right — typically a copy re-anchored there by orphan reclaim
// while the sender still held a zombie duplicate. If the relocation CAS is
// then refused, the sender must NOT revert the install: the drop would
// destroy the receiver's legitimate entry, not the sender's transfer.
type handoffResp struct {
	Existing []bool
}

type handoffDropReq struct {
	Term string
	Doc  index.DocID
}

type relocateReq struct {
	Term string
	Doc  index.DocID
	// From is the holder the sender believes the owner has on record; the
	// owner refuses the flip if its record disagrees (the entry migrated
	// some other way in the meantime).
	From simnet.Addr
	// To is the entry's new holder.
	To simnet.Addr
}

type relocateResp struct {
	OK bool
}

type repairDigestReq struct {
	// Arc restricts the exchange to the sender's owner arc: the replica
	// holder keeps copies for many primaries, and only the sender's slice of
	// the key space is the sender's to reconcile.
	Arc chordid.Arc
	// Summary is the two-level Merkle digest of the sender's primary entries
	// in Arc (see internal/repair).
	Summary repair.Summary
}

type repairDigestResp struct {
	// InSync reports digest equality — the common case, costing this one
	// round trip of a few dozen bytes.
	InSync bool
	// Buckets are the summary buckets that disagreed.
	Buckets []int
	// Local holds the replica holder's per-term digests within the divergent
	// buckets (restricted to the request arc), from which the primary
	// computes exactly which term lists to push.
	Local map[string]uint64
}

// termPostings is one term's full authoritative posting list in a repair
// push, in the block-compressed form the index stores and get_postings ships.
type termPostings struct {
	Term     string
	Postings index.Encoded
}

type repairPushReq struct {
	Arc chordid.Arc
	// Set replaces each term's replica list wholesale. A term belongs to
	// exactly one primary, so every copy of it within the arc is the
	// sender's to overwrite.
	Set []termPostings
}

type replicaRetireReq struct {
	// Holder is the departing replica holder to erase from the receiver's
	// replica-location records.
	Holder simnet.Addr
	Term   string
	Docs   []index.DocID
}

// wire-size helpers (rough but consistent, for bandwidth accounting).

func sizeTerms(terms []string) int {
	n := 0
	for _, t := range terms {
		n += len(t) + 1
	}
	return n
}

// canonicalQuery is a query's keyword multiset as one string: its terms
// sorted and space-joined. Its hash is the query's ring position — the paper
// hashes every cached query (precomputable offline) so that the single
// indexing peer holding the closest term, by hash-space distance, returns it
// during polling, avoiding duplicate transmissions (§3); storedQuery.canon
// computes it.
func canonicalQuery(terms []string) string {
	sorted := append([]string(nil), terms...)
	insertionSort(sorted)
	return strings.Join(sorted, " ")
}

// insertionSort keeps the hot path allocation-free for the short slices
// queries are (typically 3–6 terms).
func insertionSort(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// termID memoises a document term's ring position across the queries one
// poll places.
type termID struct {
	id     chordid.ID
	hashed bool
}

// closestTerm returns the term among those of docTerms that occur in query
// whose hash is closest to the query hash qh by clockwise ring distance, ties
// broken by term string so every peer reaches the same answer independently;
// "" if none occurs. ids[i] holds chordid.HashKey(docTerms[i]) once an
// election has needed it: a poll hashes each term at most once, not once per
// query it places.
func closestTerm(qh chordid.ID, query, docTerms []string, ids []termID) string {
	best := ""
	var bestDist chordid.ID
	for i, t := range docTerms {
		if !containsTerm(query, t) {
			continue
		}
		if !ids[i].hashed {
			ids[i] = termID{chordid.HashKey(t), true}
		}
		d := qh.Distance(ids[i].id)
		if c := d.Cmp(bestDist); best == "" || c < 0 || (c == 0 && t < best) {
			best, bestDist = t, d
		}
	}
	return best
}
