package core

import (
	"context"
	"fmt"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements index maintenance: un-sharing documents and the
// owner's periodic refresh. The paper's §1 observes that owners must
// "periodically probe the indexing peers to ensure that they are still
// alive"; refresh is that probe made effectful — it re-publishes every index
// term through a fresh DHT lookup, so entries migrate to whichever peer
// currently owns the term's key (after churn, joins, or recoveries).

// Unshare withdraws a document from the network: every published index term
// is removed from its indexing peer (and replicas), and the owner forgets
// the document's learning state. Terms whose indexing peer is unreachable
// are skipped — their entries die with the peer.
func (n *Network) Unshare(doc index.DocID) error {
	n.mu.RLock()
	p, ok := n.ownerOf[doc]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: document %q not shared", doc)
	}
	if err := p.unshare(doc); err != nil {
		return err
	}
	n.mu.Lock()
	delete(n.ownerOf, doc)
	for i, id := range n.docOrder {
		if id == doc {
			n.docOrder = append(n.docOrder[:i], n.docOrder[i+1:]...)
			break
		}
	}
	n.mu.Unlock()
	return nil
}

func (p *Peer) unshare(docID index.DocID) error {
	p.mu.Lock()
	st := p.owned[docID]
	p.mu.Unlock()
	if st == nil {
		return fmt.Errorf("core: peer %s does not own %q", p.Addr(), docID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	p.flushStale(st)
	for _, term := range sortedIndexedTerms(st) {
		// Best-effort: a dead indexing peer takes its entries with it.
		if err := p.unpublishTerm(context.Background(), st, term); err != nil {
			delete(st.indexed, term)
			delete(st.since, term)
			delete(st.publishedAt, term)
		}
		// An unreachable indexing peer ran no msgUnpublish handler, so the
		// handlers' invalidations don't cover every removal: drop the term's
		// cached list here, reached or not.
		p.net.caches.invalidateTerm(term)
	}
	p.mu.Lock()
	delete(p.owned, docID)
	p.mu.Unlock()
	return nil
}

// flushStale retries the withdrawals of possibly-stale copies left by failed
// refresh migrations (see docState.stale). Successfully reached holders are
// forgotten; unreachable ones stay recorded for the next sweep. Callers hold
// st.mu.
func (p *Peer) flushStale(st *docState) {
	for _, term := range sortedStaleTerms(st) {
		var remaining []simnet.Addr
		for _, addr := range st.stale[term] {
			if st.publishedAt[term] == addr {
				// The entry legitimately lives here now — it migrated back,
				// or a failed replica drop at this peer was superseded by a
				// fresh publish. The record is obsolete, not stale: retrying
				// the withdrawal would delete the live entry.
				continue
			}
			stale, err := p.sendUnpublish(context.Background(), addr, term, st.doc.ID)
			if err != nil {
				remaining = append(remaining, addr)
				continue
			}
			// The reached holder may itself have failed to withdraw replica
			// copies it pushed earlier; keep chasing those.
			remaining = append(remaining, stale...)
		}
		// As in unshare: a holder that stays unreachable invalidates nothing.
		p.net.caches.invalidateTerm(term)
		if len(remaining) == 0 {
			delete(st.stale, term)
		} else {
			st.stale[term] = remaining
		}
	}
}

// markStale records that addr may still hold a withdrawn copy of term.
func markStale(st *docState, term string, addr simnet.Addr) {
	if st.stale == nil {
		st.stale = make(map[string][]simnet.Addr)
	}
	for _, a := range st.stale[term] {
		if a == addr {
			return
		}
	}
	st.stale[term] = append(st.stale[term], addr)
}

func sortedStaleTerms(st *docState) []string {
	out := make([]string, 0, len(st.stale))
	for t := range st.stale {
		out = append(out, t)
	}
	insertionSort(out)
	return out
}

// RefreshDoc re-publishes every current index term of a document through a
// fresh lookup. After overlay changes (node joins, failures, recoveries)
// the peer responsible for a term's key may have changed; refresh moves the
// posting to the current owner, restoring findability without replication.
// It returns the number of terms whose indexing peer changed.
func (n *Network) RefreshDoc(doc index.DocID) (int, error) {
	n.mu.RLock()
	p, ok := n.ownerOf[doc]
	n.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("core: document %q not shared", doc)
	}
	return p.refresh(doc)
}

// RefreshAll refreshes every shared document in share order and returns the
// total number of migrated postings. It runs over a snapshot of the document
// set; documents unshared concurrently are skipped.
func (n *Network) RefreshAll() (int, error) {
	n.mu.RLock()
	docs := make([]index.DocID, len(n.docOrder))
	copy(docs, n.docOrder)
	owners := make([]*Peer, len(docs))
	for i, id := range docs {
		owners[i] = n.ownerOf[id]
	}
	n.mu.RUnlock()
	moved := 0
	if !n.exec.Parallel() {
		for i, id := range docs {
			if owners[i] == nil {
				continue
			}
			m, err := owners[i].refresh(id)
			if err != nil {
				return moved, fmt.Errorf("core: refresh %s: %w", id, err)
			}
			moved += m
		}
		return moved, nil
	}
	// Per-document refreshes are independent (each touches only its own
	// docState and publishes idempotently), so the sweep fans out; move
	// counts and the first error fold in share order.
	ms, errs := fanout.Map(context.Background(), n.exec, "refresh_doc", len(docs), func(_ context.Context, i int) (int, error) {
		if owners[i] == nil {
			return 0, nil
		}
		return owners[i].refresh(docs[i])
	})
	for i := range docs {
		if errs[i] != nil {
			return moved, fmt.Errorf("core: refresh %s: %w", docs[i], errs[i])
		}
		moved += ms[i]
	}
	return moved, nil
}

func (p *Peer) refresh(docID index.DocID) (int, error) {
	p.mu.Lock()
	st := p.owned[docID]
	p.mu.Unlock()
	if st == nil {
		return 0, fmt.Errorf("core: peer %s does not own %q", p.Addr(), docID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// First retry any withdrawals owed from earlier failed migrations, so a
	// recovered holder sheds its stale copy before fresh publishes go out.
	p.flushStale(st)
	// Per-term lookups — and, for terms whose responsible peer is unchanged,
	// the idempotent re-publication — fan out (network I/O only: workers read
	// st but never write it, st.mu being held across the fan-out). Terms
	// whose responsible peer changed migrate sequentially in the fold below.
	terms := sortedIndexedTerms(st)
	outs, _ := fanout.Map(context.Background(), p.net.exec, "refresh_term", len(terms), func(_ context.Context, i int) (simnet.Addr, error) {
		term := terms[i]
		ref, _, err := p.node.Lookup(chordid.HashKey(term))
		if err != nil {
			return "", nil // no live owner for this key right now
		}
		if last, known := st.publishedAt[term]; known && last != ref.Addr {
			return ref.Addr, nil // migration: withdraw-then-publish in the fold
		}
		if err := p.sendPublish(context.Background(), st, term, ref.Addr); err != nil {
			return "", nil
		}
		return ref.Addr, nil
	})
	moved := 0
	for i, term := range terms {
		addr := outs[i]
		if addr == "" {
			continue
		}
		last, known := st.publishedAt[term]
		if known && last != addr {
			// The responsible peer changed: withdraw the old copy first —
			// its replica withdrawals target the old holder's recorded
			// locations, which can overlap the new owner's replica set, so
			// publishing first would let the withdrawal erase fresh replicas
			// — then publish at the new owner. A failed withdrawal queues
			// the old holder on the stale list for later retries.
			stale, err := p.sendUnpublish(context.Background(), last, term, st.doc.ID)
			if err != nil {
				markStale(st, term, last)
			}
			for _, a := range stale {
				markStale(st, term, a)
			}
			if err := p.publishTermTo(context.Background(), st, term, addr); err != nil {
				// Old copy withdrawn (or queued for withdrawal), new publish
				// failed: the term is no longer indexed anywhere the owner
				// knows of. Forget it; the next learning iteration
				// re-selects it if it still matters.
				delete(st.indexed, term)
				delete(st.since, term)
				delete(st.publishedAt, term)
				continue
			}
			moved++
			continue
		}
		// Same responsible peer: the worker already re-published (restoring
		// replicas at the current successors as a side effect).
		if st.publishedAt == nil {
			st.publishedAt = make(map[string]simnet.Addr)
		}
		st.publishedAt[term] = addr
	}
	return moved, nil
}

func sortedIndexedTerms(st *docState) []string {
	out := make([]string, 0, len(st.indexed))
	for t := range st.indexed {
		out = append(out, t)
	}
	insertionSort(out)
	return out
}
