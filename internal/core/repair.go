package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/repair"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements peer-driven data placement: the peers holding index
// entries keep them placed, instead of waiting for the owners to find them
// misplaced.
//
// Three mechanisms cooperate:
//
//   - Join handoff: when stabilization makes a node adopt a new predecessor,
//     its owner arc shrinks, and the entries that fell outside it are handed
//     to the adopted peer immediately (newPeer installs the hook).
//   - Graceful leave: Network.Leave retires the departing peer's replica
//     holders and hands its primary entries to its ring successor before
//     unregistering it. The replicas it held for others leave with it.
//   - Anti-entropy, the only way replicas are made and removed: in
//     Network.Repair each peer exchanges a compact Merkle summary of what it
//     serves for its arc with each of its §7 replica holders and pushes only
//     the divergent term lists, dropping the terms it no longer serves.
//
// The handoff protocol must preserve the owner-ledger invariant — if an
// owner records term t as published at X, then X holds the entry — at every
// quiescent point, so moves are staged:
//
//  1. install the entries at the new holder (both peers now serve them;
//     the owner's record still points at the sender, which still holds them);
//  2. ask each owner, in one request for all of its entries, to relocate
//     its records (compare-and-swap on the current holder, per entry);
//  3. on a confirmed flip, delete the sender's copy; on a refused or
//     unreachable owner, revert the installed copy instead — all reverts in
//     one request.
//
// Entries whose owner cannot confirm thus stay exactly where the owner
// believes they are.

// shedToPred hands every primary entry outside this peer's current owner arc
// to its predecessor. The predecessor's arc need not cover all of them — a
// mass join inserts several peers at once — but each receiver's own arc
// changes (or the next Repair sweep) forward misplaced entries again, so the
// population converges with each entry traveling counter-clockwise at most
// once per hop. Returns the number of entries moved.
func (p *Peer) shedToPred() int {
	pred := p.node.Predecessor()
	if pred.Addr == "" || pred.Addr == p.Addr() {
		return 0 // no predecessor known (or singleton ring): whole space is ours
	}
	arc := chordid.OwnerArc(pred.ID, p.node.ID())
	entries := p.primaryEntries(&arc)
	if len(entries) == 0 {
		return 0
	}
	moved, _ := p.handoffEntries(pred.Addr, entries, false)
	return moved
}

// primaryEntries snapshots the primary entries whose term keys fall outside
// arc — every entry for a nil arc (graceful leave hands the whole index over,
// not a misplaced subset).
func (p *Peer) primaryEntries(arc *chordid.Arc) []handoffEntry {
	p.indexing.mu.Lock()
	defer p.indexing.mu.Unlock()
	var out []handoffEntry
	for _, term := range p.indexing.ix.Terms() {
		if arc != nil && arc.ContainsKey(term) {
			continue
		}
		for posting := range p.indexing.ix.All(term) {
			out = append(out, handoffEntry{Term: term, Posting: posting})
		}
	}
	return out
}

// handoffEntries runs the staged handoff protocol against target: one
// install, one sprite.relocate per owner of the moved entries and at most one
// revert. With force set (graceful leave — the sender is departing no matter
// what), entries whose owner could not confirm the move are left installed at
// the target anyway and returned as failed, their owner records now stale;
// without it they are reverted at the target and stay with the sender.
// Returns the count of cleanly relocated entries. An install that fails moves
// nothing and reports nothing: under force those entries die with the sender.
func (p *Peer) handoffEntries(target simnet.Addr, entries []handoffEntry, force bool) (moved int, failed []handoffEntry) {
	ctx := context.Background()
	install := handoffReq{Entries: entries}
	reply, _, err := p.send(ctx, dest{addr: target}, simnet.Message{Type: msgHandoff, Payload: install}, policy{})
	if err != nil {
		return 0, nil
	}
	installed, _ := reply.Payload.(handoffResp)
	flipped, _ := exchange(ctx, entries, p.relocations(target))
	revert := handoffReq{Revert: true}
	for i, e := range entries {
		switch {
		case flipped[i] != "":
			p.indexing.unpublish(e.Term, e.Posting.Doc)
			moved++
		case force:
			// The owner is unreachable (or disagrees); its record now points
			// at a peer that is leaving. The copy at the target is the one
			// that keeps the term findable — queries route there — and the
			// owner's next stale flush or learning sweep reconciles the record.
			p.indexing.unpublish(e.Term, e.Posting.Doc)
			failed = append(failed, e)
		case i < len(installed.Existing) && installed.Existing[i]:
			// The target already held this (term, doc) before the install —
			// the batch merged with an entry the target owns in its own
			// right (e.g. re-anchored there by orphan reclaim while this
			// peer still held a stale duplicate). Reverting would destroy
			// the target's legitimate entry, so the install stands and the
			// sender keeps its copy for the owner's record to reconcile.
		default:
			// Revert stage 1 so the entry exists only where the owner says.
			revert.Entries = append(revert.Entries, handoffEntry{Term: e.Term, Posting: index.Posting{Doc: e.Posting.Doc}})
		}
	}
	if len(revert.Entries) > 0 {
		// A failed revert means the target died mid-protocol — its state is
		// gone (or will be rebuilt by its own repair), so the extra copies
		// cannot linger.
		p.send(ctx, dest{addr: target}, simnet.Message{Type: msgHandoff, Payload: revert}, policy{}) //nolint:errcheck
	}
	if moved > 0 || len(failed) > 0 {
		p.net.caches.invalidate()
	}
	p.net.met.repairHandoffs.Add(int64(moved))
	return moved, failed
}

// relocations is the relocate protocol of a handoff to target: an item is a
// moved entry, answered with its owner if the owner flipped the holder of
// record from this peer to target. It is pinned to the entry's owner — the
// sender itself included — so each owner gets one request for all of its
// entries, and an owner that cannot be reached flips none.
func (p *Peer) relocations(target simnet.Addr) *protocol[handoffEntry, simnet.Addr] {
	return &protocol[handoffEntry, simnet.Addr]{
		stage:  "relocate",
		pinned: true,
		from:   func(handoffEntry) *Peer { return p },
		term:   func(e handoffEntry) string { return e.Term },
		holder: func(e handoffEntry) simnet.Addr { return simnet.Addr(e.Posting.Owner) },
		request: func(_ simnet.Addr, entries []handoffEntry, _ bool) simnet.Message {
			req := relocateReq{Items: make([]publishItem, len(entries)), From: p.Addr(), To: target}
			for k, e := range entries {
				req.Items[k] = publishItem{Term: e.Term, Posting: index.Posting{Doc: e.Posting.Doc}}
			}
			return simnet.Message{Type: msgRelocate, Payload: req}
		},
		read: readAccepted,
	}
}

// handleRelocate is the owner side of the holder-of-record flip. The
// compare-and-swap on From makes concurrent movers safe: whichever relocate
// reaches the owner first wins, and the loser reverts its installed copy. It
// refuses each item whose flip it did not commit.
func (p *Peer) handleRelocate(req relocateReq) publishResp {
	var resp publishResp
	for i, it := range req.Items {
		flipped := false
		if st := p.state(it.Posting.Doc); st != nil {
			st.mu.Lock()
			ot := st.terms[it.Term]
			if flipped = ot.indexed && ot.at == req.From; flipped {
				ot.at = req.To
				st.set(it.Term, ot)
			}
			st.mu.Unlock()
		}
		if !flipped {
			resp.Answers = append(resp.Answers, publishAnswer{Item: i, Refused: true})
		}
	}
	return resp
}

// antiEntropy reconciles what this peer serves for its owner arc with each
// of its §7 replica holders, and records the arc as the one reconciled
// there. A peer serves its primary list for a term, or its replica list
// where it has none (indexingState.served), so a peer that absorbed a dead
// predecessor's arc spreads that arc's surviving copies instead of dropping
// them. It adds its exchanges and the terms they pushed to st.
func (p *Peer) antiEntropy(st *RepairStats) {
	pred := p.node.Predecessor()
	if pred.Addr == "" {
		return
	}
	arc := chordid.OwnerArc(pred.ID, p.node.ID())
	p.indexing.mu.Lock()
	served := p.indexing.servedDigests(arc)
	if p.indexing.reconciled == nil {
		p.indexing.reconciled = make(map[simnet.Addr]chordid.Arc)
	}
	p.indexing.mu.Unlock()
	for _, h := range p.replicaTargets() {
		p.indexing.mu.Lock()
		// A pending drop of a joiner's keys keeps its wider arc on record.
		was, ok := p.indexing.reconciled[h]
		if _, pending := lost(was, arc); !ok || !pending {
			p.indexing.reconciled[h] = arc
		}
		p.indexing.mu.Unlock()
		if n, err := p.reconcile(h, arc, served); err == nil {
			st.Reconciles++
			st.Divergent += n
		}
	}
}

// retireHolders sends each holder this peer last reconciled an arc with one
// more reconcile, against an empty authority, over the part of that arc it no
// longer answers for there: all of it once the holder is not among targets,
// the part a joiner took from this peer's arc while it still is. A holder's
// record goes once that reconcile is done or the holder has left the network,
// its copies with it. Repair runs it for every peer before any peer's
// antiEntropy, so a joiner's fresh push never precedes a drop; a graceful
// Leave runs it with no targets. It adds its exchanges to st.
func (p *Peer) retireHolders(targets []simnet.Addr, st *RepairStats) {
	var arc chordid.Arc
	if pred := p.node.Predecessor(); pred.Addr != "" {
		arc = chordid.OwnerArc(pred.ID, p.node.ID())
	}
	p.indexing.mu.Lock()
	recs := maps.Clone(p.indexing.reconciled)
	p.indexing.mu.Unlock()
	for _, h := range sortedKeys(recs) {
		gone, drop := lost(recs[h], arc)
		kept := slices.Contains(targets, h)
		if !kept {
			gone, drop = recs[h], true
		}
		if !drop {
			continue
		}
		if _, member := p.net.Peer(h); member {
			n, err := p.reconcile(h, gone, nil)
			if err != nil {
				continue // retried at the next Repair
			}
			st.Reconciles++
			st.Divergent += n
		}
		p.indexing.mu.Lock()
		if delete(p.indexing.reconciled, h); kept {
			p.indexing.reconciled[h] = arc
		}
		p.indexing.mu.Unlock()
	}
}

// lost returns the part of was, an arc this peer reconciled, that its arc now
// lacks, and whether there is one: a joiner's keys, when arc starts inside
// was. Both arcs end at this peer.
func lost(was, arc chordid.Arc) (chordid.Arc, bool) {
	if arc.IsFull() || arc.From == was.From || !was.Contains(arc.From) {
		return chordid.Arc{}, false
	}
	return chordid.Arc{From: was.From, To: arc.From}, true
}

// reconcile runs one digest exchange with holder h over arc against
// authority, the term digests h's replica lists there should match, and
// pushes what differs in one request: each divergent term's list as this
// peer serves it, and each term h holds outside authority as an empty list,
// which h drops. It returns the number of terms pushed.
func (p *Peer) reconcile(h simnet.Addr, arc chordid.Arc, authority map[string]uint64) (int, error) {
	ctx := context.Background()
	reply, _, err := p.send(ctx, dest{addr: h}, simnet.Message{
		Type:    msgRepairDigest,
		Payload: repairDigestReq{Arc: arc, Summary: repair.Fold(authority)},
	}, policy{})
	if err != nil {
		return 0, err
	}
	p.net.met.repairReconciles.Inc()
	resp, ok := reply.Payload.(repairDigestResp)
	if !ok || resp.InSync {
		return 0, nil
	}
	need, drop := repair.DiffTerms(repair.InBuckets(authority, resp.Buckets), resp.Local)
	if len(need)+len(drop) == 0 {
		return 0, nil
	}
	set := make([]termPostings, 0, len(need)+len(drop))
	p.indexing.mu.Lock()
	for _, t := range need {
		l, _ := p.indexing.served(t)
		set = append(set, termPostings{Term: t, Postings: l})
	}
	p.indexing.mu.Unlock()
	for _, t := range drop {
		set = append(set, termPostings{Term: t})
	}
	p.net.met.repairDivergent.Add(int64(len(set)))
	_, _, err = p.send(ctx, dest{addr: h}, simnet.Message{Type: msgRepairPush, Payload: repairPushReq{Arc: arc, Set: set}}, policy{})
	return len(set), err
}

// handleRepairDigest is the replica holder's side of the summary exchange.
func (p *Peer) handleRepairDigest(req repairDigestReq) repairDigestResp {
	p.indexing.mu.Lock()
	local := p.indexing.replicas.ArcDigests(req.Arc)
	p.indexing.mu.Unlock()
	div := repair.Divergent(req.Summary, repair.Fold(local))
	if div == nil {
		return repairDigestResp{InSync: true}
	}
	return repairDigestResp{Buckets: div, Local: repair.InBuckets(local, div)}
}

// handleRepairPush installs the pushed terms' replica lists wholesale, an
// empty one dropping the term. A list Replace refuses keeps the old one,
// which the next digest exchange re-pushes.
func (p *Peer) handleRepairPush(req repairPushReq) {
	p.indexing.mu.Lock()
	for _, tp := range req.Set {
		p.indexing.replicas.Replace(tp.Term, tp.Postings) //nolint:errcheck
	}
	p.indexing.mu.Unlock()
	p.net.caches.invalidate()
}

// RepairStats summarizes one Network.Repair sweep.
type RepairStats struct {
	// Moved is the number of primary entries relocated to their arc owner.
	Moved int
	// Rounds is the number of shed rounds until no entry moved.
	Rounds int
	// Reconciles is the number of anti-entropy digest exchanges performed.
	Reconciles int
	// Divergent is the number of term lists those exchanges had to push.
	Divergent int
}

// Repair runs one peer-driven maintenance sweep: every alive peer sheds
// misplaced primary entries to its predecessor (repeated until a fixpoint,
// so chains of misplacement drain), then every peer retires the replica
// holders it no longer answers to, then every peer reconciles what it serves
// for its arc with its replica holders. It involves no owners and no
// per-term lookups — its message cost is proportional to what actually
// diverged, not to the index size. Once it has run, every posting published
// before it has ReplicationFactor copies on its indexing peer's successors
// and every posting withdrawn before it has none.
func (n *Network) Repair() RepairStats {
	var st RepairStats
	// A misplaced entry moves at least one hop counter-clockwise per round,
	// and each hop is final or strictly closer to its owner, so the fixpoint
	// arrives in at most one round per peer; the cap only guards pathology.
	for round := 0; round < len(n.Peers())+1; round++ {
		moved := 0
		for _, p := range n.Peers() {
			if !n.ring.Net().Alive(p.Addr()) {
				continue
			}
			moved += p.shedToPred()
		}
		st.Rounds++
		st.Moved += moved
		if moved == 0 {
			break
		}
	}
	if n.cfg.ReplicationFactor > 0 {
		alive := slices.DeleteFunc(n.Peers(), func(p *Peer) bool { return !n.ring.Net().Alive(p.Addr()) })
		for _, p := range alive {
			p.retireHolders(p.replicaTargets(), &st)
		}
		for _, p := range alive {
			p.antiEntropy(&st)
		}
	}
	return st
}

// FlushStaleAll retries every owner's pending stale withdrawals, one withdraw
// phase per document, and repairs records orphaned by graceful departures: it
// sends only the overdue withdrawals and the orphaned re-publishes. Heal
// sequences run it after Repair so recovered holders shed withdrawn copies and
// owners whose recorded holder left the network re-anchor those terms.
func (n *Network) FlushStaleAll() {
	docs, owners := n.sharedDocs()
	for i, id := range docs {
		p := owners[i]
		if p == nil || !n.ring.Net().Alive(p.Addr()) {
			continue
		}
		st := p.state(id)
		if st == nil {
			continue
		}
		st.mu.Lock()
		d := &sweepDoc{p: p, id: id, st: st}
		d.pullStale()
		n.withdrawPhase(context.Background(), []*sweepDoc{d})
		p.reclaimOrphans(st)
		st.mu.Unlock()
	}
}

// reclaimOrphans re-publishes indexed terms whose recorded holder no longer
// exists. A graceful leave with an unreachable owner leaves the record
// pointing at the departed peer (the entry itself went to the leave-time
// successor); once the owner is reachable again this re-anchors the record —
// and the entry — at the term's current indexing peer. Cost is proportional
// to the orphaned records, not the index. Caller holds st.mu.
func (p *Peer) reclaimOrphans(st *docState) int {
	reclaimed := 0
	for _, term := range st.indexedTerms() {
		at := st.terms[term].at
		if at == "" {
			continue
		}
		if _, exists := p.net.Peer(at); exists {
			continue
		}
		if p.publishTerm(context.Background(), st, term) == nil {
			reclaimed++
		}
	}
	return reclaimed
}

// LeaveReport summarizes a graceful departure.
type LeaveReport struct {
	// Docs is the number of documents the peer owned and withdrew on the way
	// out (a document's owner role leaves with it).
	Docs int
	// Handoffs is the number of primary entries cleanly handed to the
	// successor (owner records relocated).
	Handoffs int
	// Unrelocated lists entries installed at the successor whose owners
	// could not be told about the move — their records point at the departed
	// peer until their own stale-handling catches up.
	Unrelocated []IndexEntry
}

// Leave removes a peer gracefully. Before the node is spliced out of the
// ring and unregistered, the peer (1) unshares every document it owns and
// (2) hands its primary index entries to its ring successor through the
// staged handoff protocol. Its replicas leave with it unannounced: the
// primaries' records of them are dropped by the withdrawals that would have
// addressed them. The departed peer is forgotten by the network; the address
// cannot be revived.
func (n *Network) Leave(addr simnet.Addr) (LeaveReport, error) {
	p, ok := n.Peer(addr)
	var rep LeaveReport
	if !ok {
		return rep, fmt.Errorf("%w: %q", ErrNoSuchPeer, addr)
	}
	if !n.ring.Net().Alive(addr) {
		return rep, fmt.Errorf("core: peer %q cannot leave gracefully while failed", addr)
	}

	// Owner role: the documents leave with their owner, in one withdraw
	// phase. Best-effort: unreachable holders keep copies until they die.
	var mine []index.DocID
	docs, owners := n.sharedDocs()
	for i, id := range docs {
		if owners[i] == p {
			mine = append(mine, id)
		}
	}
	p.unshare(mine...)
	for _, id := range mine {
		n.forget(id)
	}
	rep.Docs = len(mine)
	// Its replica holders drop its arc's copies: the successor serves the
	// entries handed to it, never a copy a withdrawal since the last Repair
	// left behind.
	p.retireHolders(nil, &RepairStats{})

	// Indexing role: hand every primary entry to the first alive successor.
	var succ simnet.Addr
	for _, ref := range p.node.SuccessorList() {
		if ref.Addr != addr && n.ring.Net().Alive(ref.Addr) {
			succ = ref.Addr
			break
		}
	}
	if succ != "" {
		moved, failed := p.handoffEntries(succ, p.primaryEntries(nil), true)
		rep.Handoffs = moved
		for _, e := range failed {
			rep.Unrelocated = append(rep.Unrelocated, IndexEntry{Peer: succ, Term: e.Term, Posting: e.Posting})
		}
		sortEntries(rep.Unrelocated)
	}

	// Depart: forget the peer, then splice the node out of the ring (which
	// fires the successor's arc-change hook — its arc grows, so nothing
	// sheds) and unregister it.
	n.mu.Lock()
	delete(n.peers, addr)
	n.order = slices.DeleteFunc(n.order, func(q *Peer) bool { return q == p })
	n.mu.Unlock()
	n.ring.Leave(p.node)
	n.caches.invalidate()
	return rep, nil
}

// sortEntries orders index entries for deterministic reporting.
func sortEntries(entries []IndexEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Term != b.Term {
			return a.Term < b.Term
		}
		return a.Posting.Doc < b.Posting.Doc
	})
}
