package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements the owner's side of index maintenance: un-sharing
// documents and retrying withdrawals owed to peers that may still hold a
// copy. The paper's §1 observes that owners must "periodically probe the
// indexing peers to ensure that they are still alive"; the learning sweep is
// that probe (reanchor in learn.go re-publishes a posting its holder lost).

// Unshare withdraws a document from the network: every published index term
// is removed from its indexing peer (its replicas at the next Repair), and
// the owner forgets the document's learning state. Terms whose indexing peer
// is unreachable are skipped — their entries die with the peer.
func (n *Network) Unshare(doc index.DocID) error {
	p, ok := n.Owner(doc)
	if !ok {
		return fmt.Errorf("core: document %q not shared", doc)
	}
	if p.state(doc) == nil {
		return fmt.Errorf("core: peer %s does not own %q", p.Addr(), doc)
	}
	p.unshare(doc)
	n.forget(doc)
	return nil
}

// unshare withdraws the given documents of p's in one withdraw phase — every
// indexed term's posting and every copy their stale ledgers still owe, one
// sprite.publish per holder — and forgets them. Best-effort: a holder it
// cannot reach keeps its copy until it dies. A sweep that waited for one of
// the documents' locks finds it unshared and leaves it alone.
func (p *Peer) unshare(ids ...index.DocID) {
	var docs []*sweepDoc
	for _, id := range ids {
		if st := p.state(id); st != nil {
			docs = append(docs, &sweepDoc{p: p, id: id, st: st})
		}
	}
	docs = lockDocs(docs)
	if len(docs) == 0 {
		return
	}
	for _, d := range docs {
		d.st.unshared = true
		d.pulls = make([]pull, 0, d.st.nIndexed+len(d.st.stale))
		d.pullStale()
		ledger := len(d.pulls)
		for t, ot := range d.st.terms {
			if ot.indexed {
				d.retire(t, "")
			}
		}
		// Holder by holder, each's terms in order, so that every run sends
		// alike and the exchange finds its batches laid out.
		slices.SortFunc(d.pulls[ledger:], func(a, b pull) int {
			return cmp.Or(strings.Compare(string(a.at), string(b.at)), strings.Compare(a.term, b.term))
		})
	}
	p.net.withdrawPhase(context.Background(), docs)
	unlockDocs(docs)
	p.mu.Lock()
	for _, d := range docs {
		delete(p.owned, d.id)
	}
	p.mu.Unlock()
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
