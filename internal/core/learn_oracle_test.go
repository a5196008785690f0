package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
)

// learnAllPerTerm is the learning iteration as it ran before sweeps were
// batched: documents in share order, concurrently under Parallelism > 1, each
// one polling its index terms with one routed poll per term (a fan-out nested
// in the document's) and routing one publish per new term. With HotTermDF 0 a
// document's learning reads nothing another document's writes, so the order
// does not matter; the batched sweep must learn exactly what it does. The
// advisory is where the two part: a per-term document polls after earlier
// documents' withdrawals.
func (n *Network) learnAllPerTerm(ctx context.Context) (int, error) {
	n.mu.RLock()
	docs := append([]index.DocID(nil), n.docOrder...)
	owners := make([]*Peer, len(docs))
	for i, id := range docs {
		owners[i] = n.ownerOf[id]
	}
	n.mu.RUnlock()
	chs, errs := fanout.Map(ctx, n.exec, "learn_doc", len(docs), func(ctx context.Context, i int) (int, error) {
		if owners[i] == nil {
			return 0, nil
		}
		return owners[i].learnDocPerTerm(ctx, docs[i])
	})
	changes := 0
	for i, err := range errs {
		if errors.Is(err, errNotOwned) {
			continue
		}
		if err != nil {
			return changes, fmt.Errorf("core: learning %s: %w", docs[i], err)
		}
		changes += chs[i]
	}
	return changes, nil
}

// learnDocPerTerm is one document's per-term iteration: every poll on the
// per-term route (pollRouted, the path a batch's refused items take), then the
// fold, then every publish routed and recorded the moment it is decided.
func (p *Peer) learnDocPerTerm(ctx context.Context, id index.DocID) (int, error) {
	p.mu.Lock()
	st := p.owned[id]
	p.mu.Unlock()
	if st == nil {
		return 0, errNotOwned
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	terms := sortedIndexedTerms(st)
	polls, errs := fanout.Map(ctx, p.net.exec, "poll", len(terms), func(ctx context.Context, i int) (pollOut, error) {
		return p.pollRouted(ctx, st, terms, terms[i]), nil
	})
	if err := fanout.FirstError(errs); err != nil {
		return 0, err
	}
	p.foldPolls(ctx, st, terms, polls)
	return p.applyRankList(ctx, st, func(term string) error { return p.publishTerm(ctx, st, term) })
}
