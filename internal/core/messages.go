package core

import (
	"slices"
	"strings"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/repair"
	"github.com/spritedht/sprite/internal/simnet"
)

// SPRITE's application-level message types, dispatched by chord.Node to the
// owning Peer. A message costs its payload's encoded length (wire.Size).
const (
	// msgPublish carries (term, posting) pairs from an owner peer to the
	// indexing peer responsible for the terms, and the (term, doc) postings
	// the owner withdraws from it.
	msgPublish = "sprite.publish"
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
	// msgHandoff batch-installs primary index entries at a peer whose arc now
	// covers them — the first round of the join/leave handoff protocol (see
	// internal/core/repair.go). The receiver serves them immediately but the
	// sender remains their holder of record until relocation commits. With
	// Revert set it takes back the entries whose relocation failed.
	msgHandoff = "sprite.repair.handoff"
	// msgRelocate asks a document's owner to rewrite its holder of record
	// for each listed term, compare-and-swap style: a flip
	// commits only if the owner still believes the entry lives at the sender.
	msgRelocate = "sprite.relocate"
	// msgRepairDigest opens an anti-entropy exchange: the primary holder of
	// an arc sends its compact Merkle summary; the replica holder answers
	// with the per-term digests of the divergent buckets (or "in sync").
	msgRepairDigest = "sprite.repair.digest"
	// msgRepairPush closes an anti-entropy exchange: the primary replaces the
	// divergent terms' replica lists wholesale and drops the terms it lacks.
	msgRepairPush = "sprite.repair.push"
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
	// Withdraw asks the receiver to remove Posting.Doc's posting under Term,
	// from its primary and its replica index, instead of indexing one. It is
	// never arc-checked.
	Withdraw bool
}

// publishResp answers, by position in the request, the items the receiver
// refused because their keys are outside its arc. It indexed or withdrew
// every other item.
type publishResp struct {
	Answers []publishAnswer
}

type publishAnswer struct {
	Item    int
	Refused bool
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

// getPostingsResp answers a getPostingsReq term by term in request order.
type getPostingsResp struct {
	Items []postingsList
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

// pollResp answers a pollReq item by item, document by document and term by
// term in request order.
type pollResp struct {
	Items []pollResult
}

type pollResult struct {
	// Refused reports that the term's key is outside the answering peer's
	// arc (a CheckArc request only); nothing else is set.
	Refused bool
	// Missing reports that the answering peer serves the term's key but holds
	// no primary posting of the document under it (see reanchor).
	Missing bool
	// Queries lists each elected query once, with how many of its issuances
	// are newer than the watermark.
	Queries  []polledQuery
	NewSince uint64
	// IndexedDF is the polled term's current indexed document frequency at
	// this peer — the signal behind the §7 hot-term advisory: a very high
	// value means the term's IDF is negligible and owners are better off
	// spending the index slot elsewhere.
	IndexedDF int
}

// polledQuery is one query a poll returns: its keyword sequence and its
// issuance count, which Algorithm 1 adds to each term's QF. The count is at
// least 1 and at most math.MaxInt32.
type polledQuery struct {
	Terms  []string
	Copies int
}

// handoffEntry is one primary index entry in flight during a join/leave
// handoff.
type handoffEntry struct {
	Term    string
	Posting index.Posting
}

type handoffReq struct {
	Entries []handoffEntry
	// Revert takes the entries — each its term and document only — back out
	// of the receiver's primary index: their relocation failed, so they live
	// only where their owners' records say.
	Revert bool
}

// handoffResp reports, per entry of the request, whether the receiver's
// primary index already held the (term, doc) before the install. A
// pre-existing entry means the install merged with state the receiver owned
// in its own right — typically a copy re-anchored there by orphan reclaim
// while the sender still held a zombie duplicate. If the relocation CAS is
// then refused, the sender must NOT revert the install: the revert would
// destroy the receiver's legitimate entry, not the sender's transfer.
type handoffResp struct {
	Existing []bool
}

// relocateReq asks one document owner to flip its holder-of-record for each
// item — a term and, document-only, its posting — from From to To. The owner
// answers with a publishResp refusing the items whose flip it did not commit.
type relocateReq struct {
	Items []publishItem
	// From is the holder the sender believes the owner has on record; the
	// owner refuses an item's flip if its record disagrees (the entry
	// migrated some other way in the meantime).
	From simnet.Addr
	// To is the entries' new holder.
	To simnet.Addr
}

type repairDigestReq struct {
	// Arc restricts the exchange to the sender's owner arc: the replica
	// holder keeps copies for many primaries, and only the sender's slice of
	// the key space is the sender's to reconcile.
	Arc chordid.Arc
	// Summary is the two-level Merkle digest of the lists the sender serves
	// in Arc (see internal/repair), or of none when it retires the holder.
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
	// Set replaces each term's replica list wholesale, an empty list dropping
	// the term. A term belongs to exactly one primary, so every copy of it
	// within the arc is the sender's to overwrite.
	Set []termPostings
}

// canonicalQuery is a query's keyword multiset as one string: its terms
// sorted and space-joined. Its hash is the query's ring position — the paper
// hashes every cached query (precomputable offline) so that the single
// indexing peer holding the closest term, by hash-space distance, returns it
// during polling, avoiding duplicate transmissions (§3); storedQuery.canon
// computes it.
func canonicalQuery(terms []string) string {
	sorted := slices.Clone(terms)
	slices.Sort(sorted)
	return strings.Join(sorted, " ")
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
