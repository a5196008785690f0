package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements the learning iteration (§5.3, Algorithm 1) as one
// sweep over a set of documents, in three network-wide phases with a barrier
// between them:
//
//  1. Poll. Every owner sends each indexing peer one sprite.poll carrying
//     every (document, term) item whose posting that peer holds
//     (publishedAt), each with its watermark.
//  2. Fold. Each document folds its answers in sorted-term order into the
//     per-term statistics, runs the §7 hot-term advisory and rebuilds its rank
//     list, deciding what to withdraw (done here) and what to publish, and
//     re-anchors the postings a poll found missing (reanchor).
//  3. Publish. Each owner sends each indexing peer one sprite.publish carrying
//     every publish bound there: a re-anchor to the peer that answered
//     Missing, a term one of its documents has a holder for to that holder,
//     and any other term to the peer its own node names for the key
//     (chord.Node.LocalOwner), as a query's fetch does. No publish is routed
//     first.
//
// Poll and publish are two protocols (polls, publishes) of exchange
// (send.go): a batch is addressed from the owner's records, so the holder
// checks each item's key against its own arc (chord.Node.Serves) and refuses
// what it does not serve. Refused items, items whose holder is the owner
// itself or unknown, and every item of a batch whose holder is dead or did not
// answer go alone by the term's key — exactly as a single poll or publish
// always did — so a stale or dead holder costs only its own batch.

// sweepDoc is one document's part in a learning sweep.
type sweepDoc struct {
	p  *Peer
	id index.DocID
	st *docState
	// terms are the document's index terms when the sweep opened, sorted:
	// the terms polled, and every poll's DocTerms.
	terms []string
	// polls[i] answers terms[i]; its at is "" when nobody did.
	polls []pollOut
	// publish holds the terms the fold decided to publish, in decision order;
	// landed[i] is where publish[i] went.
	publish []string
	added   int // publish[:added] are new terms, the rest re-anchored ones
	landed  []publishResult
	changes int
	err     error
}

// pollOut is one (document, term) poll's answer and the peer that gave it —
// the peer its NewSince belongs to.
type pollOut struct {
	res pollResult
	at  simnet.Addr
}

// learnItem is one (document, term) item of a phase: terms[i] in the poll
// phase, publish[i] in the publish phase.
type learnItem struct {
	d *sweepDoc
	i int
}

// learn runs one learning iteration over the given documents (owners[i] owns
// ids[i]). A document no longer owned is skipped. It returns the number of
// index changes (publishes plus replacements) and the first error in document
// order; a done ctx aborts the sweep before anything is folded.
func (n *Network) learn(ctx context.Context, ids []index.DocID, owners []*Peer) (int, error) {
	docs := openSweep(ids, owners)
	defer func() {
		for _, d := range docs {
			d.st.mu.Unlock()
		}
	}()
	if len(docs) == 0 {
		return 0, nil
	}
	n.pollPhase(ctx, docs)
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("core: learning: %w", err)
	}
	errs := fanout.ForEach(ctx, n.exec, "fold", len(docs), func(ctx context.Context, i int) error {
		d := docs[i]
		d.p.foldPolls(ctx, d.st, d.terms, d.polls)
		d.changes, d.err = d.p.applyRankList(ctx, d.st, func(term string) error {
			d.st.indexed[term] = true
			d.publish = append(d.publish, term)
			return nil
		})
		d.added = len(d.publish)
		d.p.reanchor(ctx, d.st, d.terms, d.polls, func(term string) { d.publish = append(d.publish, term) })
		return nil
	})
	for i, err := range errs {
		if err != nil {
			docs[i].err = err
		}
	}
	n.publishPhase(ctx, docs)

	changes := 0
	var first error
	for _, d := range docs {
		d.p.net.met.learnChanges.Add(int64(d.changes))
		changes += d.changes
		if d.err != nil && first == nil {
			first = fmt.Errorf("core: learning %s: %w", d.id, d.err)
		}
	}
	return changes, first
}

// openSweep takes the state of every document still owned and holds its lock
// for the sweep, in the order given. Locks are taken in doc-ID order, so two
// sweeps cannot wait on each other in a cycle, and no peer lock is held
// meanwhile (Snapshot takes a peer's lock, then its documents').
func openSweep(ids []index.DocID, owners []*Peer) []*sweepDoc {
	var found []*sweepDoc
	for i, id := range ids {
		p := owners[i]
		if p == nil {
			continue
		}
		if st := p.state(id); st != nil {
			found = append(found, &sweepDoc{p: p, id: id, st: st})
		}
	}
	byID := append([]*sweepDoc(nil), found...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].id < byID[j].id })
	for _, d := range byID {
		d.st.mu.Lock()
	}
	docs := found[:0]
	for _, d := range found {
		if d.st.unshared {
			d.st.mu.Unlock()
			continue
		}
		d.terms = sortedKeys(d.st.indexed)
		d.polls = make([]pollOut, len(d.terms))
		d.p.net.met.learnRounds.Inc()
		docs = append(docs, d)
	}
	return docs
}

// pollPhase polls every document's index terms and leaves the answers in
// d.polls. Polls only read the indexing peers' histories, so every one of
// the sweep reads its IndexedDF before any publish or withdrawal of the sweep.
func (n *Network) pollPhase(ctx context.Context, docs []*sweepDoc) {
	var items []learnItem
	for _, d := range docs {
		for i := range d.terms {
			items = append(items, learnItem{d, i})
		}
	}
	outs, _ := exchange(ctx, items, n.polls())
	for k, it := range items {
		it.d.polls[it.i] = outs[k]
	}
}

// polls is the poll protocol: an item is terms[i] of its document, answered
// with the poll's result and the peer that gave it, or left unanswered (at
// "") — the document learns from the rest. A batch lists each document's
// terms once. An item's watermark goes only to the peer that issued it
// (sinceAt), so one routed to its holder of record as the route's hint and
// served by another peer is asked once more, directly, with that peer's own.
func (n *Network) polls() *protocol[learnItem, pollOut] {
	term := func(it learnItem) string { return it.d.terms[it.i] }
	return &protocol[learnItem, pollOut]{
		stage:    "poll",
		rerouted: n.met.learnRerouted,
		hinted:   true,
		from:     func(it learnItem) *Peer { return it.d.p },
		term:     term,
		holder:   func(it learnItem) simnet.Addr { return it.d.st.publishedAt[term(it)] },
		request: func(to simnet.Addr, items []learnItem, checkArc bool) simnet.Message {
			req := pollReq{CheckArc: checkArc}
			for _, it := range items {
				if len(req.Docs) == 0 || req.Docs[len(req.Docs)-1].Doc != it.d.id {
					req.Docs = append(req.Docs, pollDoc{Doc: it.d.id, DocTerms: it.d.terms})
				}
				doc := &req.Docs[len(req.Docs)-1]
				doc.Terms = append(doc.Terms, pollTerm{Term: term(it), Since: it.d.st.since[term(it)].sinceAt(to)})
			}
			return simnet.Message{Type: msgPoll, Payload: req, Size: req.size()}
		},
		read: func(reply simnet.Message, at simnet.Addr, n int) ([]pollOut, []bool, error) {
			resp, ok := reply.Payload.(pollResp)
			if !ok || len(resp.Items) != n {
				return nil, nil, badReply(reply, at, n)
			}
			out, refused := make([]pollOut, n), make([]bool, n)
			for k, r := range resp.Items {
				out[k], refused[k] = pollOut{res: r, at: at}, r.Refused
			}
			return out, refused, nil
		},
		reask: func(it learnItem, sent, served simnet.Addr) bool {
			mark := it.d.st.since[term(it)]
			return mark.sinceAt(served) != mark.sinceAt(sent)
		},
	}
}

// foldPolls is Algorithm 1's steps 1 and 2 for one document, given the
// answers to its polls (polls[i] for terms[i]): advance each answered term's
// watermark, retire the hot terms (§7) and fold the incremental query set Q′
// into the running statistics (max qScore, cumulative QF).
func (p *Peer) foldPolls(ctx context.Context, st *docState, terms []string, polls []pollOut) {
	var incremental [][]string
	var hot []string
	for i, term := range terms {
		if polls[i].at == "" {
			continue
		}
		res := polls[i].res
		st.since[term] = pollMark{At: polls[i].at, Since: res.NewSince}
		if p.net.cfg.HotTermDF > 0 && res.IndexedDF >= p.net.cfg.HotTermDF {
			hot = append(hot, term)
		}
		incremental = append(incremental, res.Queries...)
	}

	// §7 hot-term advisory: drop terms whose indexed document frequency is
	// so high that their IDF — and hence their contribution to similarity —
	// is negligible, while their maintenance load on the indexing peer is
	// maximal. The freed slots are refilled by this iteration's selection.
	// Every owner reads the same pre-sweep IndexedDF, so every document of
	// the sweep that indexes a hot term retires it.
	for _, term := range hot {
		if len(st.indexed) <= 1 {
			break // never strip a document's last index term
		}
		if st.banned == nil {
			st.banned = make(map[string]bool)
		}
		st.banned[term] = true
		// The advisory commits only if the entry's removal went through. On
		// failure (the indexing peer died between the poll and the removal)
		// the ban is rolled back and the term stays indexed, so the next
		// iteration retries. Keeping the ban while the entry survives would
		// wedge the document: the term would never be re-selected or
		// re-anchored, and the stale entry would resurface ownerless when the
		// indexing peer recovers.
		if err := p.unpublishTerm(ctx, st, term); err != nil {
			delete(st.banned, term)
		}
	}

	// Algorithm 1 lines 4–16.
	for _, q := range incremental {
		qs := qScore(q, st.doc)
		for i, t := range q {
			// Each distinct term once: queries are a handful of terms, so a
			// scan of the prefix de-duplicates without building a set.
			if containsTerm(q[:i], t) || !st.doc.Contains(t) {
				continue
			}
			ts := st.stats[t]
			if ts == nil {
				ts = &termStat{}
				st.stats[t] = ts
			}
			ts.qf++
			if qs > ts.maxQS {
				ts.maxQS = qs
			}
		}
	}
}

// reanchor makes the peer that answered Missing the holder of record of every
// term still indexed — its holder crashed, or its key moved to a peer nobody
// handed the entry to — and has publish send the posting there: §1's owner
// probing made effectful. The copy at a different previous holder goes first,
// as its replica withdrawals could erase the new holder's fresh replicas; one
// it cannot reach goes on the stale list. Re-anchors count in
// sprite.learn.reanchored, not as index changes.
func (p *Peer) reanchor(ctx context.Context, st *docState, terms []string, polls []pollOut, publish func(term string)) {
	for i, term := range terms {
		last := st.publishedAt[term]
		if !polls[i].res.Missing || !st.indexed[term] || last == "" {
			continue
		}
		if last != polls[i].at {
			stale, err := p.sendUnpublish(ctx, dest{addr: last}, term, st.doc.ID)
			if err != nil {
				markStale(st, term, last)
			}
			for _, a := range stale {
				markStale(st, term, a)
			}
		}
		st.publishedAt[term] = polls[i].at
		p.net.met.learnReanchored.Inc()
		publish(term)
	}
}

// publishResult is where one publish item landed, or why it did not.
type publishResult struct {
	at  simnet.Addr
	err error
}

// publishPhase publishes the terms the fold decided on and records where each
// landed. A new term that could not be published leaves the indexed set again
// and fails its document; a re-anchored one is forgotten.
func (n *Network) publishPhase(ctx context.Context, docs []*sweepDoc) {
	// Each owner's term → holder map, from its documents' records in sweep
	// order: the first record of a term wins. A term none of them holds goes
	// to the peer the owner's own node names for its key, as a query's fetch
	// does. The holder's arc check makes a stale name cost a refusal, not a
	// misplaced posting.
	type ownerTerm struct {
		p    *Peer
		term string
	}
	holders := make(map[ownerTerm]simnet.Addr)
	var items []learnItem
	for _, d := range docs {
		for t, at := range d.st.publishedAt {
			if k := (ownerTerm{d.p, t}); holders[k] == "" {
				holders[k] = at
			}
		}
		d.landed = make([]publishResult, len(d.publish))
		for i := range d.publish {
			items = append(items, learnItem{d, i})
		}
	}
	ats, errs := exchange(ctx, items, n.publishes(func(it learnItem) simnet.Addr {
		t := it.d.publish[it.i]
		if it.i >= it.d.added {
			return it.d.st.publishedAt[t] // the peer that answered Missing
		}
		if at := holders[ownerTerm{it.d.p, t}]; at != "" {
			return at
		}
		return it.d.p.node.LocalOwner(chordid.HashKey(t)).Addr
	}))
	for k, it := range items {
		it.d.landed[it.i] = publishResult{ats[k], errs[k]}
	}

	for _, d := range docs {
		for i, t := range d.publish {
			if r := d.landed[i]; r.err == nil {
				d.p.recordPublished(d.st, t, r.at)
				continue
			}
			forgetTerm(d.st, t)
			if i < d.added {
				d.changes--
				if d.err == nil {
					d.err = fmt.Errorf("core: publish %q: %w", t, d.landed[i].err)
				}
			}
		}
	}
}

// publishes is the publish protocol: an item is publish[i] of its document,
// answered with the peer that accepted the posting. holder names each item's
// holder for the batches.
func (n *Network) publishes(holder func(learnItem) simnet.Addr) *protocol[learnItem, simnet.Addr] {
	return &protocol[learnItem, simnet.Addr]{
		stage:    "publish",
		rerouted: n.met.learnRerouted,
		from:     func(it learnItem) *Peer { return it.d.p },
		term:     func(it learnItem) string { return it.d.publish[it.i] },
		holder:   holder,
		request: func(_ simnet.Addr, items []learnItem, checkArc bool) simnet.Message {
			req := publishReq{CheckArc: checkArc}
			for _, it := range items {
				req.Items = append(req.Items, it.d.p.itemFor(it.d.st, it.d.publish[it.i]))
			}
			return simnet.Message{Type: msgPublish, Payload: req, Size: req.size()}
		},
		read: func(reply simnet.Message, at simnet.Addr, n int) ([]simnet.Addr, []bool, error) {
			resp, ok := reply.Payload.(publishResp)
			if !ok {
				return nil, nil, badReply(reply, at, n)
			}
			out, refused := make([]simnet.Addr, n), make([]bool, n)
			for k := range out {
				out[k] = at
			}
			for _, k := range resp.Refused {
				if k >= 0 && k < n {
					refused[k] = true
				}
			}
			return out, refused, nil
		},
	}
}
