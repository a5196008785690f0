package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements the owner's side of index maintenance: un-sharing
// documents and retrying withdrawals owed to peers that may still hold a
// copy. The paper's §1 observes that owners must "periodically probe the
// indexing peers to ensure that they are still alive"; the learning sweep is
// that probe (reanchor in learn.go re-publishes a posting its holder lost).

// Unshare withdraws a document from the network: every published index term
// is removed from its indexing peer (and replicas), and the owner forgets
// the document's learning state. Terms whose indexing peer is unreachable
// are skipped — their entries die with the peer.
func (n *Network) Unshare(doc index.DocID) error {
	p, ok := n.Owner(doc)
	if !ok {
		return fmt.Errorf("core: document %q not shared", doc)
	}
	if err := p.unshare(doc); err != nil {
		return err
	}
	n.forget(doc)
	return nil
}

func (p *Peer) unshare(docID index.DocID) error {
	st := p.state(docID)
	if st == nil {
		return fmt.Errorf("core: peer %s does not own %q", p.Addr(), docID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.unshared = true
	p.flushStale(st)
	for _, term := range sortedKeys(st.indexed) {
		// Best-effort: a dead indexing peer takes its entries with it.
		if err := p.unpublishTerm(context.Background(), st, term); err != nil {
			forgetTerm(st, term)
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
// re-anchors and unshares (see docState.stale). Successfully reached holders
// are forgotten; unreachable ones stay recorded for the next sweep. Callers
// hold st.mu.
func (p *Peer) flushStale(st *docState) {
	for _, term := range sortedKeys(st.stale) {
		var remaining []simnet.Addr
		for _, addr := range st.stale[term] {
			if st.publishedAt[term] == addr {
				// The entry legitimately lives here now — it migrated back,
				// or a failed replica drop at this peer was superseded by a
				// fresh publish. The record is obsolete, not stale: retrying
				// the withdrawal would delete the live entry.
				continue
			}
			stale, err := p.sendUnpublish(context.Background(), dest{addr: addr}, term, st.doc.ID)
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
	if !slices.Contains(st.stale[term], addr) {
		st.stale[term] = append(st.stale[term], addr)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
