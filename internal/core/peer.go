package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
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

func newPeer(n *Network, node *chord.Node) *Peer {
	return &Peer{
		net:  n,
		node: node,
		indexing: indexingState{
			ix:         index.NewInverted(),
			replicas:   index.NewInverted(),
			historyCap: n.cfg.HistoryCap,
		},
		owned: make(map[index.DocID]*docState),
	}
}

// Addr returns the peer's network address.
func (p *Peer) Addr() simnet.Addr { return p.node.Addr() }

// Node returns the peer's Chord node.
func (p *Peer) Node() *chord.Node { return p.node }

// Index returns the peer's primary inverted index (indexing-peer role).
// Exposed read-only for experiments and tests.
func (p *Peer) Index() *index.Inverted { return p.indexing.ix }

// HistoryLen returns the number of queries currently cached at this peer.
func (p *Peer) HistoryLen() int {
	p.indexing.mu.Lock()
	defer p.indexing.mu.Unlock()
	return len(p.indexing.history)
}

// HandleMessage implements simnet.Handler for SPRITE's application messages.
func (p *Peer) HandleMessage(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	switch msg.Type {
	case msgPublish:
		req := msg.Payload.(publishReq)
		p.indexing.publish(req.Term, req.Posting)
		p.replicateOut(req.Term, req.Posting)
		p.net.caches.invalidateTerm(req.Term)
		return simnet.Message{Type: msg.Type, Size: 1}, nil

	case msgUnpublish:
		req := msg.Payload.(unpublishReq)
		p.indexing.unpublish(req.Term, req.Doc)
		// Also shed any replica copy held locally: stale-withdrawal retries
		// address the holder directly, and a former replica target must be
		// able to clear its copy through the same message.
		p.indexing.dropReplica(req.Term, req.Doc)
		stale := p.replicateDrop(req.Term, req.Doc)
		p.net.caches.invalidateTerm(req.Term)
		return simnet.Message{
			Type:    msg.Type,
			Payload: unpublishResp{StaleReplicas: stale},
			Size:    1 + 8*len(stale),
		}, nil

	case msgGetPostings:
		req := msg.Payload.(getPostingsReq)
		if req.Record {
			p.indexing.cacheQuery(req.Query)
			p.net.met.queriesCached.Inc()
		}
		resp := p.indexing.postings(req.Term)
		p.net.met.postingsServed.Inc()
		switch {
		case resp.FromReplica:
			p.net.met.replicaHits.Inc()
		case resp.IndexedDF > 0:
			p.net.met.primaryHits.Inc()
		default:
			p.net.met.misses.Inc()
		}
		return simnet.Message{Type: msg.Type, Payload: resp, Size: resp.Postings.Size() + 8}, nil

	case msgCacheQuery:
		req := msg.Payload.(cacheQueryReq)
		p.indexing.cacheQuery(req.Query)
		p.net.met.queriesCached.Inc()
		return simnet.Message{Type: msg.Type, Size: 1}, nil

	case msgPoll:
		req := msg.Payload.(pollReq)
		resp := p.indexing.poll(req)
		p.net.met.pollsServed.Inc()
		p.net.met.pollQueries.Add(int64(len(resp.Queries)))
		size := 8
		for _, q := range resp.Queries {
			size += sizeTerms(q)
		}
		return simnet.Message{Type: msg.Type, Payload: resp, Size: size}, nil

	case msgReplica:
		req := msg.Payload.(replicaReq)
		p.indexing.addReplica(req.Term, req.Posting)
		p.net.caches.invalidateTerm(req.Term)
		return simnet.Message{Type: msg.Type, Size: 1}, nil

	case msgReplicaDrop:
		req := msg.Payload.(replicaDropReq)
		p.indexing.dropReplica(req.Term, req.Doc)
		p.net.caches.invalidateTerm(req.Term)
		return simnet.Message{Type: msg.Type, Size: 1}, nil

	case msgDocTerms:
		req := msg.Payload.(docTermsReq)
		resp := p.handleDocTerms(req)
		return simnet.Message{Type: msg.Type, Payload: resp, Size: 8 * len(resp.TF)}, nil

	case msgHandoff:
		req := msg.Payload.(handoffReq)
		resp := handoffResp{Existing: make([]bool, len(req.Entries))}
		for i, e := range req.Entries {
			resp.Existing[i] = p.indexing.publishReporting(e.Term, e.Posting)
			p.indexing.recordReplicaLocs(e.Term, e.Posting.Doc, e.ReplicaLocs)
		}
		p.net.caches.invalidate()
		return simnet.Message{Type: msg.Type, Payload: resp, Size: 1 + len(resp.Existing)}, nil

	case msgHandoffDrop:
		req := msg.Payload.(handoffDropReq)
		p.indexing.unpublish(req.Term, req.Doc)
		p.indexing.takeReplicaLocs(req.Term, req.Doc)
		p.net.caches.invalidateTerm(req.Term)
		return simnet.Message{Type: msg.Type, Size: 1}, nil

	case msgRelocate:
		req := msg.Payload.(relocateReq)
		return simnet.Message{Type: msg.Type, Payload: p.handleRelocate(req), Size: 1}, nil

	case msgRepairDigest:
		req := msg.Payload.(repairDigestReq)
		resp := p.handleRepairDigest(req)
		return simnet.Message{Type: msg.Type, Payload: resp, Size: 1 + 8*len(resp.Buckets) + 16*len(resp.Local)}, nil

	case msgRepairPush:
		req := msg.Payload.(repairPushReq)
		p.handleRepairPush(req)
		return simnet.Message{Type: msg.Type, Size: 1}, nil

	case msgReplicaRetire:
		req := msg.Payload.(replicaRetireReq)
		p.handleReplicaRetire(req)
		return simnet.Message{Type: msg.Type, Size: 1}, nil

	case msgSketchScan:
		resp := p.handleSketchScan()
		return simnet.Message{Type: msg.Type, Payload: resp, Size: sketchScanSize(resp)}, nil
	}
	return simnet.Message{}, fmt.Errorf("core: peer %s: unknown message type %q", p.Addr(), msg.Type)
}

// replicaTargets returns the first ReplicationFactor successors excluding the
// peer itself — the §7 replica set for entries this peer indexes.
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

// replicateOut pushes a freshly published entry to this peer's first
// ReplicationFactor successors (§7: "we can replicate the indexes of a peer
// in its successor peers"). The push targets are recorded so a later
// withdrawal reaches every peer that actually holds a copy, even after the
// successor set has rotated. The per-successor pushes are independent
// best-effort calls, so they fan out.
func (p *Peer) replicateOut(term string, posting index.Posting) {
	targets := p.replicaTargets()
	p.indexing.recordReplicaLocs(term, posting.Doc, targets)
	fanout.ForEach(context.Background(), p.net.exec, "replicate", len(targets), func(_ context.Context, i int) error {
		p.net.ring.Net().Call(p.Addr(), targets[i], simnet.Message{
			Type:    msgReplica,
			Payload: replicaReq{Term: term, Posting: posting},
			Size:    len(term) + posting.WireSize(),
		})
		return nil
	})
}

// replicateDrop withdraws an entry's replicas: from every successor the
// entry was ever pushed to (the recorded locations) plus the current replica
// set, deduplicated. Without the recorded locations, copies pushed before a
// successor-list rotation would leak forever. It returns the targets whose
// withdrawal failed (dead or unreachable holders): the recorded locations are
// consumed here, so an unreported failure would orphan that copy — no later
// operation addresses the entry at that peer.
func (p *Peer) replicateDrop(term string, doc index.DocID) []simnet.Addr {
	targets := mergeAddrs(p.indexing.takeReplicaLocs(term, doc), p.replicaTargets())
	_, errs := fanout.Map(context.Background(), p.net.exec, "replicate", len(targets), func(_ context.Context, i int) (struct{}, error) {
		_, err := p.net.ring.Net().Call(p.Addr(), targets[i], simnet.Message{
			Type:    msgReplicaDrop,
			Payload: replicaDropReq{Term: term, Doc: doc},
			Size:    len(term) + len(doc),
		})
		return struct{}{}, err
	})
	var failed []simnet.Addr
	for i, err := range errs {
		if err != nil {
			failed = append(failed, targets[i])
		}
	}
	return failed
}

// mergeAddrs unions two address lists, sorted for deterministic fan-out.
func mergeAddrs(a, b []simnet.Addr) []simnet.Addr {
	seen := make(map[simnet.Addr]bool, len(a)+len(b))
	out := make([]simnet.Addr, 0, len(a)+len(b))
	for _, list := range [][]simnet.Addr{a, b} {
		for _, addr := range list {
			if !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// indexingState is the indexing-peer role's state: primary inverted lists,
// successor replicas held on behalf of other peers, and the query history.
type indexingState struct {
	mu       sync.Mutex
	ix       *index.Inverted
	replicas *index.Inverted
	// replicaLocs records, per (term, doc) in the primary index, which
	// successor addresses hold replicas pushed by this peer. replicateDrop
	// consumes it so withdrawals reach stale locations too.
	replicaLocs map[string]map[index.DocID][]simnet.Addr
	// history ascends by seq cyclically from index oldest: it is filled in
	// arrival order and, once full, overwritten oldest-first like a ring.
	history    []storedQuery
	oldest     int
	historyCap int
	seq        uint64
}

// recordReplicaLocs unions targets into the replica-location record for
// (term, doc).
func (s *indexingState) recordReplicaLocs(term string, doc index.DocID, targets []simnet.Addr) {
	if len(targets) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replicaLocs == nil {
		s.replicaLocs = make(map[string]map[index.DocID][]simnet.Addr)
	}
	byDoc := s.replicaLocs[term]
	if byDoc == nil {
		byDoc = make(map[index.DocID][]simnet.Addr)
		s.replicaLocs[term] = byDoc
	}
	byDoc[doc] = mergeAddrs(byDoc[doc], targets)
}

// takeReplicaLocs removes and returns the recorded replica locations for
// (term, doc).
func (s *indexingState) takeReplicaLocs(term string, doc index.DocID) []simnet.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	byDoc := s.replicaLocs[term]
	locs := byDoc[doc]
	if byDoc != nil {
		delete(byDoc, doc)
		if len(byDoc) == 0 {
			delete(s.replicaLocs, term)
		}
	}
	return locs
}

// storedQuery is one cached query: its keyword set and arrival sequence
// number. Recording stores nothing else. The canonical key and the query
// hash (§3: "every cached query is hashed also, which can be precomputed
// offline") are off the query's path: canon computes both, once, the first
// time a poll has to place the entry, so an entry evicted before any poll
// reached it never pays for them.
type storedQuery struct {
	terms []string
	seq   uint64
	key   string     // canonicalQuery(terms); "" until canon has run
	hash  chordid.ID // chordid.HashKey(key); valid once key is set
}

// canon memoises the entry's canonical key and ring hash and returns the
// hash. The caller holds the indexing state's lock.
func (sq *storedQuery) canon() chordid.ID {
	if sq.key == "" {
		sq.key = canonicalQuery(sq.terms)
		sq.hash = chordid.HashKey(sq.key)
	}
	return sq.hash
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

func (s *indexingState) addReplica(term string, p index.Posting) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas.Add(term, p)
}

func (s *indexingState) dropReplica(term string, doc index.DocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas.Remove(term, doc)
}

// postings serves a term's inverted list, falling back to successor replicas
// when the primary list is empty — the failover path that makes peer crashes
// survivable (§7). The response carries the index's immutable encoded blocks
// zero-copy: mutations swap in fresh blocks, so the snapshot stays valid
// after the lock is released.
func (s *indexingState) postings(term string) getPostingsResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.ix.Encoded(term); e.Len() > 0 {
		return getPostingsResp{Postings: e, IndexedDF: e.Len()}
	}
	if re := s.replicas.Encoded(term); re.Len() > 0 {
		return getPostingsResp{Postings: re, IndexedDF: re.Len(), FromReplica: true}
	}
	return getPostingsResp{}
}

// cacheQuery records a query issuance in the bounded history. Repeats are
// stored as separate entries — the paper's history is "the most recently
// issued queries" (§3), and QF deliberately counts every issuance, which is
// exactly what makes popular queries weigh more under skewed workloads
// (the Fig. 4(b) "w-zipf" effect). The capacity bound evicts the oldest
// issuance.
func (s *indexingState) cacheQuery(terms []string) {
	if len(terms) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	sq := storedQuery{terms: append([]string(nil), terms...), seq: s.seq}
	if len(s.history) >= s.historyCap {
		// Evict the oldest issuance.
		s.history[s.oldest] = sq
		s.oldest = (s.oldest + 1) % len(s.history)
		return
	}
	s.history = append(s.history, sq)
}

// restoreHistory installs a history loaded from a snapshot and re-establishes
// the ring order cacheQuery evicts by. A snapshot of a full history is
// already such a ring, so only its oldest entry has to be found — it may be
// longer than a smaller historyCap, and then keeps its length and evicts in
// place. One shorter than historyCap will grow by appending, which needs it
// in arrival order from index 0. The caller holds s.mu.
func (s *indexingState) restoreHistory(h []storedQuery) {
	s.history, s.oldest = h, 0
	if len(h) < s.historyCap {
		sort.Slice(h, func(i, j int) bool { return h[i].seq < h[j].seq })
		return
	}
	for i := range h {
		if h[i].seq < h[s.oldest].seq {
			s.oldest = i
		}
	}
}

// poll answers an owner's index-update poll: among cached queries newer than
// the watermark that mention req.Term, return those for which req.Term is
// the closest of the document's global index terms to the query hash —
// guaranteeing each query is shipped to the owner by exactly one indexing
// peer (§3).
func (s *indexingState) poll(req pollReq) pollResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := pollResp{NewSince: s.seq, IndexedDF: s.ix.DocFreq(req.Term)}
	var matched []*storedQuery // valid while s.mu is held
	var ids []termID           // ring positions of req.DocTerms, see closestTerm
	for i := range s.history {
		sq := &s.history[i]
		if sq.seq <= req.Since {
			continue
		}
		if !containsTerm(sq.terms, req.Term) {
			continue
		}
		if ids == nil {
			ids = make([]termID, len(req.DocTerms))
		}
		// Only document index terms that occur in the query can have the
		// query cached at their indexing peers, so the closest-term election
		// runs over that intersection; electing an absent term would leave
		// the query unreturned by everyone.
		if closestTerm(sq.canon(), sq.terms, req.DocTerms, ids) != req.Term {
			continue
		}
		matched = append(matched, sq)
	}
	if len(matched) == 0 {
		return resp
	}
	// Deterministic order for the owner's incremental processing: by
	// canonical key, which canon left in every matched entry.
	sort.Slice(matched, func(i, j int) bool { return matched[i].key < matched[j].key })
	resp.Queries = make([][]string, len(matched))
	for i, m := range matched {
		resp.Queries[i] = append([]string(nil), m.terms...)
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
