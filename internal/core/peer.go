package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// Peer is one SPRITE participant: a Chord node plus indexing-peer state (the
// inverted lists and query history for terms the overlay assigns to it) and
// owner-peer state (the documents it shares and their learning statistics).
type Peer struct {
	net  *Network
	node *chord.Node

	indexing indexingState

	mu    sync.Mutex
	owned map[index.DocID]*docState
}

// newPeer makes node's peer and installs it as the node's application
// handler and arc-change listener: the hook fires the moment notify (or a
// graceful-leave splice) installs a new predecessor, which is exactly when the
// peer's owner arc changes shape (see shedToPred).
func newPeer(n *Network, node *chord.Node) *Peer {
	p := &Peer{
		net:  n,
		node: node,
		indexing: indexingState{
			ix:       index.NewInverted(),
			replicas: index.NewInverted(),
			history:  history{cap: n.cfg.HistoryCap},
		},
		owned: make(map[index.DocID]*docState),
	}
	node.SetAppHandler(p)
	node.SetPredChangeHook(func(_, _ chord.Ref) { p.shedToPred() })
	return p
}

// Addr returns the peer's network address.
func (p *Peer) Addr() simnet.Addr { return p.node.Addr() }

// Node returns the peer's Chord node.
func (p *Peer) Node() *chord.Node { return p.node }

// Index returns the peer's primary inverted index (indexing-peer role).
// Exposed read-only for experiments and tests.
func (p *Peer) Index() *index.Inverted { return p.indexing.ix }

// HistoryLen returns the number of query issuances currently cached at this
// peer.
func (p *Peer) HistoryLen() int {
	p.indexing.mu.Lock()
	defer p.indexing.mu.Unlock()
	return len(p.indexing.history.ring)
}

// HandleMessage implements simnet.Handler for SPRITE's application messages.
// It dispatches on the payload's type, which the codec decoded by its own
// kind, so a message whose type string names another payload, or none, gets
// an error, never a panic. The reply costs its payload's encoded length.
func (p *Peer) HandleMessage(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	reply := simnet.Message{Type: msg.Type}
	switch req := msg.Payload.(type) {
	case publishReq:
		var resp publishResp
		for i, it := range req.Items {
			switch {
			case it.Withdraw:
				p.indexing.unpublish(it.Term, it.Posting.Doc)
				// Also shed any replica copy held locally: a stale-withdrawal
				// retry addresses the holder directly, whatever role it
				// holds the copy in now.
				p.indexing.dropReplica(it.Term, it.Posting.Doc)
			case req.CheckArc && !p.node.Serves(chordid.HashKey(it.Term)):
				resp.Answers = append(resp.Answers, publishAnswer{Item: i, Refused: true})
				continue
			default:
				p.indexing.publish(it.Term, it.Posting)
			}
			p.net.caches.invalidateTerm(it.Term)
		}
		reply.Payload = resp

	case getPostingsReq:
		resp := getPostingsResp{Items: make([]postingsList, len(req.Terms))}
		for i, term := range req.Terms {
			if req.CheckArc && !p.node.Serves(chordid.HashKey(term)) {
				resp.Items[i].Refused = true
				continue
			}
			resp.Items[i] = p.servePostings(term, req.Query, req.Record)
		}
		reply.Payload = resp

	case cacheQueryReq:
		p.indexing.cacheQuery(req.Query)
		p.net.met.queriesCached.Inc()

	case pollReq:
		resp := p.handlePoll(req)
		reply.Payload = resp

	case docTermsReq:
		resp := p.handleDocTerms(req)
		reply.Payload = resp

	case handoffReq:
		if req.Revert {
			for _, e := range req.Entries {
				p.indexing.unpublish(e.Term, e.Posting.Doc)
				p.net.caches.invalidateTerm(e.Term)
			}
			break
		}
		resp := handoffResp{Existing: make([]bool, len(req.Entries))}
		for i, e := range req.Entries {
			resp.Existing[i] = p.indexing.publishReporting(e.Term, e.Posting)
		}
		p.net.caches.invalidate()
		reply.Payload = resp

	case relocateReq:
		resp := p.handleRelocate(req)
		reply.Payload = resp

	case repairDigestReq:
		resp := p.handleRepairDigest(req)
		reply.Payload = resp

	case repairPushReq:
		p.handleRepairPush(req)

	default:
		return simnet.Message{}, fmt.Errorf("core: peer %s: no handler for %q carrying %T", p.Addr(), msg.Type, msg.Payload)
	}
	reply.Size = wire.Size(reply.Payload)
	return reply, nil
}

// servePostings answers one term of a postings request: the query goes into
// the history first when record is set, once per term served, exactly as a
// request for that term alone would put it there.
func (p *Peer) servePostings(term string, query []string, record bool) postingsList {
	if record {
		p.indexing.cacheQuery(query)
		p.net.met.queriesCached.Inc()
	}
	resp := p.indexing.postings(term)
	p.net.met.postingsServed.Inc()
	switch {
	case resp.FromReplica:
		p.net.met.replicaHits.Inc()
	case resp.IndexedDF > 0:
		p.net.met.primaryHits.Inc()
	default:
		p.net.met.misses.Inc()
	}
	return resp
}

// replicaTargets returns the first ReplicationFactor successors excluding the
// peer itself — the §7 replica set anti-entropy keeps this peer's arc on.
func (p *Peer) replicaTargets() []simnet.Addr {
	r := p.net.cfg.ReplicationFactor
	if r <= 0 {
		return nil
	}
	var out []simnet.Addr
	for i, succ := range p.node.SuccessorList() {
		if i >= r {
			break
		}
		if succ.Addr == p.Addr() {
			continue
		}
		out = append(out, succ.Addr)
	}
	return out
}

// indexingState is the indexing-peer role's state: primary inverted lists,
// successor replicas held on behalf of other peers, and the query history.
type indexingState struct {
	mu       sync.Mutex
	ix       *index.Inverted
	replicas *index.Inverted
	// reconciled records, per replica holder, the arc this peer last
	// reconciled there: the copies it answers for at that holder. It is nil
	// until the peer first reconciles.
	reconciled map[simnet.Addr]chordid.Arc
	history    history
}

// history is an indexing peer's bounded query history: the most recent
// issuances (§3), each distinct term sequence stored once. The ring holds each
// issuance's query slot in arrival order; evicting one decrements its query's
// count, and a query whose count reaches zero is reclaimed.
type history struct {
	queries []storedQuery    // by slot; a slot with no terms is free
	free    []int32          // free slots
	slots   map[uint64]int32 // termsHash → the slot of the query it finds
	// ring ascends by seq cyclically from index oldest: it is filled in
	// arrival order and, once full, overwritten oldest-first. Issuance seqs
	// are consecutive, so a slot's position is its seq (seqAt).
	ring   []int32
	oldest int
	cap    int
	seq    uint64 // the newest issuance's; survives eviction
}

// storedQuery is one distinct cached query: its keyword sequence, how many of
// its issuances the ring holds and the newest one's seq. Recording stores
// nothing else. The canonical key and the query hash (§3: "every cached query
// is hashed also, which can be precomputed offline") are off the query's
// path: canon computes both, once, the first time a poll has to place the
// query, so a query evicted before any poll reached it never pays for them.
type storedQuery struct {
	terms  []string
	count  int
	newest uint64
	key    string     // canonicalQuery(terms); "" until canon has run
	hash   chordid.ID // chordid.HashKey(key); valid once key is set
}

// canon memoises the query's canonical key and ring hash and returns the
// hash. The caller holds the indexing state's lock.
func (sq *storedQuery) canon() chordid.ID {
	if sq.key == "" {
		sq.key = canonicalQuery(sq.terms)
		sq.hash = chordid.HashKey(sq.key)
	}
	return sq.hash
}

// termsHash is FNV-1a over the exact term sequence, each term terminated by
// 0xff, a byte no UTF-8 text holds: it finds a query's slot, and equality of
// the sequences decides.
func termsHash(terms []string) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range terms {
		for i := 0; i < len(t); i++ {
			h = (h ^ uint64(t[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return h
}

// add records an issuance of terms as the next seq, evicting the oldest
// issuance at capacity. A repeat of a stored query allocates nothing; a new
// one allocates the copy of its terms. A sequence whose hash finds another
// query is stored without an index entry: never merged with it, only not
// found again.
func (h *history) add(terms []string) {
	hk := termsHash(terms)
	q, found := h.slots[hk]
	if !found || !slices.Equal(h.queries[q].terms, terms) {
		q = h.insert(slices.Clone(terms))
		if !found {
			if h.slots == nil {
				h.slots = make(map[uint64]int32)
			}
			h.slots[hk] = q
		}
	}
	h.seq++
	sq := &h.queries[q]
	sq.count++
	sq.newest = h.seq
	if len(h.ring) < h.cap {
		h.ring = append(h.ring, q)
		return
	}
	h.release(h.ring[h.oldest])
	h.ring[h.oldest] = q
	h.oldest = (h.oldest + 1) % len(h.ring)
}

// insert stores a new distinct query in a free slot and returns the slot.
func (h *history) insert(terms []string) int32 {
	sq := storedQuery{terms: terms}
	if n := len(h.free); n > 0 {
		q := h.free[n-1]
		h.free = h.free[:n-1]
		h.queries[q] = sq
		return q
	}
	h.queries = append(h.queries, sq)
	return int32(len(h.queries) - 1)
}

// release drops one issuance of slot q's query, reclaiming the slot with its
// last.
func (h *history) release(q int32) {
	sq := &h.queries[q]
	if sq.count--; sq.count > 0 {
		return
	}
	if hk := termsHash(sq.terms); h.slots[hk] == q {
		delete(h.slots, hk)
	}
	*sq = storedQuery{}
	h.free = append(h.free, q)
}

// at returns the query slot of the i-th oldest issuance.
func (h *history) at(i int) int32 {
	return h.ring[(h.oldest+i)%len(h.ring)]
}

// seqAt returns the i-th oldest issuance's seq.
func (h *history) seqAt(i int) uint64 {
	return h.seq - uint64(len(h.ring)) + 1 + uint64(i)
}

func (s *indexingState) publish(term string, p index.Posting) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ix.Add(term, p)
}

// publishReporting installs a primary entry and reports whether the index
// already held a posting for (term, doc). Handoff installs need the
// distinction: merging with an entry the peer owned in its own right must
// not be reverted when the relocation later aborts.
func (s *indexingState) publishReporting(term string, p index.Posting) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Put(term, p)
}

func (s *indexingState) unpublish(term string, doc index.DocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ix.Remove(term, doc)
}

func (s *indexingState) dropReplica(term string, doc index.DocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas.Remove(term, doc)
}

// served returns the list the peer serves for term, and whether it is a
// replica's: its primary list, falling back to successor replicas when the
// primary list is empty — the failover path that makes peer crashes
// survivable (§7), and what anti-entropy spreads. Caller holds s.mu.
func (s *indexingState) served(term string) (index.Encoded, bool) {
	if e := s.ix.Encoded(term); e.Len() > 0 {
		return e, false
	}
	re := s.replicas.Encoded(term)
	return re, re.Len() > 0
}

// servedDigests returns the digest of each term in arc as served serves it.
// Caller holds s.mu.
func (s *indexingState) servedDigests(arc chordid.Arc) map[string]uint64 {
	out := s.replicas.ArcDigests(arc)
	maps.Copy(out, s.ix.ArcDigests(arc))
	return out
}

// postings answers a fetch of term with the list the peer serves. The
// response carries the index's immutable encoded blocks zero-copy: mutations
// swap in fresh blocks, so the snapshot stays valid after the lock is
// released.
func (s *indexingState) postings(term string) postingsList {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, fromReplica := s.served(term)
	return postingsList{Postings: l, IndexedDF: l.Len(), FromReplica: fromReplica}
}

// cacheQuery records a query issuance in the bounded history. QF counts every
// issuance — the paper's history is "the most recently issued queries" (§3),
// which is exactly what makes popular queries weigh more under skewed
// workloads (the Fig. 4(b) "w-zipf" effect) — so a repeat is one more
// issuance of its stored query. The capacity bound evicts the oldest
// issuance.
func (s *indexingState) cacheQuery(terms []string) {
	if len(terms) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history.add(terms)
}

// handlePoll answers a poll item by item. A CheckArc request's items whose
// keys lie outside this peer's arc are refused, untouched: the owner sends
// them by the per-term route instead, which is what makes the answer the
// ring's and not a stale record's. An item served but not held is Missing.
func (p *Peer) handlePoll(req pollReq) pollResp {
	var resp pollResp
	for _, d := range req.Docs {
		ids := make([]termID, len(d.DocTerms)) // shared by the document's terms
		for _, t := range d.Terms {
			if req.CheckArc && !p.node.Serves(chordid.HashKey(t.Term)) {
				resp.Items = append(resp.Items, pollResult{Refused: true})
				continue
			}
			r := p.indexing.poll(t.Term, d.Doc, d.DocTerms, t.Since, ids)
			p.net.met.pollsServed.Inc()
			issuances := 0
			for _, q := range r.Queries {
				issuances += q.Copies
			}
			p.net.met.pollQueries.Add(int64(issuances))
			resp.Items = append(resp.Items, r)
		}
	}
	return resp
}

// poll answers one (document, term) item of an owner's index-update poll:
// among cached issuances newer than the watermark since that mention term,
// return those for which term is the closest of the document's global index
// terms to the query hash — guaranteeing each query is shipped to the owner
// by exactly one indexing peer (§3) — and whether the primary index lacks
// doc's posting under term. It walks the distinct queries, electing once per
// query, and answers each elected query once with its number of issuances
// newer than since, ordered by canonical key, then term sequence. ids
// memoises the ring positions of docTerms (see closestTerm) and may be shared
// by polls of the same document's terms; nil allocates one.
func (s *indexingState) poll(term string, doc index.DocID, docTerms []string, since uint64, ids []termID) pollResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &s.history
	resp := pollResult{Missing: !s.ix.Contains(term, doc), NewSince: h.seq, IndexedDF: s.ix.DocFreq(term)}
	var matched []int32
	for i := range h.queries {
		sq := &h.queries[i]
		if sq.newest <= since || !containsTerm(sq.terms, term) {
			continue // a free slot's newest is 0
		}
		if ids == nil {
			ids = make([]termID, len(docTerms))
		}
		// Only document index terms that occur in the query can have the
		// query cached at their indexing peers, so the closest-term election
		// runs over that intersection; electing an absent term would leave
		// the query unreturned by everyone.
		if closestTerm(sq.canon(), sq.terms, docTerms, ids) != term {
			continue
		}
		matched = append(matched, int32(i))
	}
	if len(matched) == 0 {
		return resp
	}
	// An elected query counts its issuances newer than since: all of them
	// when since precedes the oldest, else its records in the ring's tail
	// after since. An elected query is newer than since, so since is behind
	// the newest issuance and the count is at least 1.
	var fresh []int // by slot; nil when every issuance is newer than since
	if oldest := h.seqAt(0); since >= oldest {
		fresh = make([]int, len(h.queries))
		for i := int(since-oldest) + 1; i < len(h.ring); i++ {
			fresh[h.at(i)]++
		}
	}
	// Deterministic order for the owner's incremental processing: by
	// canonical key, which canon left in every elected query, then by terms.
	slices.SortFunc(matched, func(a, b int32) int {
		qa, qb := &h.queries[a], &h.queries[b]
		if c := strings.Compare(qa.key, qb.key); c != 0 {
			return c
		}
		return slices.Compare(qa.terms, qb.terms)
	})
	resp.Queries = make([]polledQuery, len(matched))
	for k, q := range matched {
		sq := &h.queries[q]
		copies := sq.count
		if fresh != nil {
			copies = fresh[q]
		}
		resp.Queries[k] = polledQuery{Terms: slices.Clone(sq.terms), Copies: copies}
	}
	return resp
}

func containsTerm(terms []string, t string) bool {
	for _, x := range terms {
		if x == t {
			return true
		}
	}
	return false
}
