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
	docs, owners := n.sharedDocs()
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
// poll protocol's one-item route (the path a batch's refused items take), then
// the fold, then every withdrawal on the withdraw protocol's one-item form,
// every new term's publish routed, and every re-anchor sent straight to the
// peer that answered Missing.
func (p *Peer) learnDocPerTerm(ctx context.Context, id index.DocID) (int, error) {
	p.mu.Lock()
	st := p.owned[id]
	p.mu.Unlock()
	if st == nil {
		return 0, errNotOwned
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	terms := st.indexedTerms()
	d := &sweepDoc{p: p, id: id, st: st, terms: terms}
	polls, errs := fanout.Map(ctx, p.net.exec, "poll", len(terms), func(ctx context.Context, i int) (pollOut, error) {
		out, _, _ := p.net.polls().route(ctx, learnItem{d, i}, dest{}, nil)
		return out, nil
	})
	if err := fanout.FirstError(errs); err != nil {
		return 0, err
	}
	d.polls = polls
	d.foldPolls()
	d.applyRankList()
	d.reanchor()
	for _, pl := range d.pulls {
		_, _, err := withdrawals.route(ctx, pl, dest{}, nil)
		pl.settle(err)
	}
	for i, term := range d.publish {
		if i < d.added {
			if err := p.publishTerm(ctx, st, term); err != nil {
				return d.changes, err
			}
			continue
		}
		at, one := st.terms[term].at, &sweepDoc{p: p, id: id, st: st, publish: []string{term}}
		msg := p.net.publishes(nil).request(at, []learnItem{{one, 0}}, false)
		if _, _, err := p.send(ctx, dest{addr: at}, msg, policy{}); err != nil {
			forgetTerm(st, term)
		} else {
			p.recordPublished(st, term, at)
		}
	}
	return d.changes, d.err
}
