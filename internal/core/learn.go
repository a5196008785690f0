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
//     list, deciding what to withdraw (done here) and what to publish.
//  3. Publish. Each owner routes the first publish of every term none of its
//     documents has a holder for; the route names the holder. Every other
//     publish goes in one sprite.publish per holder.
//
// A batch is addressed from the owner's records (batch.go), so the holder
// checks each item's key against its own arc (chord.Node.Serves) and refuses
// what it does not serve. Refused items, items whose holder is the owner
// itself or unknown, and every item of a batch whose holder did not answer
// take the per-term route instead — chord.Route on the term's key, exactly as
// a single poll or publish always did — so a stale or dead holder costs only
// its own batch.

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

// peer is the owner the item's exchange goes from.
func (it learnItem) peer() *Peer { return it.d.p }

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
		p.mu.Lock()
		st := p.owned[id]
		p.mu.Unlock()
		if st != nil {
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
		d.terms = sortedIndexedTerms(d.st)
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
	jobs := groupJobs(items, learnItem.peer, func(it learnItem) simnet.Addr { return it.d.st.publishedAt[it.d.terms[it.i]] })
	outs, _ := fanout.Map(ctx, n.exec, "poll", len(jobs), func(ctx context.Context, i int) ([]pollOut, error) {
		return jobs[i].p.pollJob(ctx, &jobs[i]), nil
	})
	for i, j := range jobs {
		for k, it := range j.items {
			if outs[i] != nil {
				it.d.polls[it.i] = outs[i][k]
			}
		}
	}
}

// pollJob sends one poll job: in a batch, the items grouped by document, each
// document's terms once.
func (p *Peer) pollJob(ctx context.Context, j *job[learnItem]) []pollOut {
	send := func() ([]pollOut, []bool, bool) {
		req := pollReq{CheckArc: true}
		for _, it := range j.items {
			if len(req.Docs) == 0 || req.Docs[len(req.Docs)-1].Doc != it.d.id {
				req.Docs = append(req.Docs, pollDoc{Doc: it.d.id, DocTerms: it.d.terms})
			}
			term := it.d.terms[it.i]
			doc := &req.Docs[len(req.Docs)-1]
			doc.Terms = append(doc.Terms, pollTerm{Term: term, Since: it.d.st.since[term].sinceAt(j.holder)})
		}
		reply, err := p.net.ring.Net().CallCtx(ctx, p.Addr(), j.holder, simnet.Message{Type: msgPoll, Payload: req, Size: req.size()})
		resp, ok := reply.Payload.(pollResp)
		if err != nil || !ok || len(resp.Items) != len(j.items) {
			return nil, nil, false
		}
		out, refused := make([]pollOut, len(j.items)), make([]bool, len(j.items))
		for k, r := range resp.Items {
			out[k], refused[k] = pollOut{res: r, at: j.holder}, r.Refused
		}
		return out, refused, true
	}
	return settle(j, p.net.met.learnRerouted, send, func(it learnItem) pollOut {
		return p.pollRouted(ctx, it.d.st, it.d.terms, it.d.terms[it.i])
	})
}

// pollRouted polls one (document, term) item on the per-term route: routed by
// the term's key with the holder of record as the route's owner hint, the
// watermark going along only if the peer it is bound for issued it. If the
// ring hands the poll to another peer, that peer read its history with a
// watermark that is not its own, and is asked once more with its own. An
// unreachable indexing peer leaves the item unanswered (at ""): the document
// learns from the rest.
func (p *Peer) pollRouted(ctx context.Context, st *docState, docTerms []string, term string) pollOut {
	mark, at := st.since[term], st.publishedAt[term]
	msg := func(since uint64) simnet.Message {
		req := pollReq{Docs: []pollDoc{{Doc: st.doc.ID, DocTerms: docTerms, Terms: []pollTerm{{Term: term, Since: since}}}}}
		return simnet.Message{Type: msgPoll, Payload: req, Size: req.size()}
	}
	reply, owner, _, err := p.node.Route(ctx, chordid.HashKey(term), msg(mark.sinceAt(at)), nil, at)
	if since := mark.sinceAt(owner.Addr); err == nil && since != mark.sinceAt(at) {
		reply, err = p.net.ring.Net().CallCtx(ctx, p.Addr(), owner.Addr, msg(since))
	}
	if resp, ok := reply.Payload.(pollResp); err == nil && ok && len(resp.Items) == 1 && !resp.Items[0].Refused {
		return pollOut{res: resp.Items[0], at: owner.Addr}
	}
	return pollOut{}
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
		// refreshed, and the stale entry would resurface ownerless when the
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

// publishResult is where one publish item landed, or why it did not.
type publishResult struct {
	at  simnet.Addr
	err error
}

// publishPhase publishes the terms the fold decided on and records where each
// landed; a term that could not be published leaves the indexed set again and
// fails its document.
func (n *Network) publishPhase(ctx context.Context, docs []*sweepDoc) {
	// Each owner's term → holder map, from its documents' records in sweep
	// order: the first record of a term wins, and the holder's arc check
	// makes a stale one cost a refusal, not a misplaced posting.
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
	keyOf := func(it learnItem) ownerTerm { return ownerTerm{it.d.p, it.d.publish[it.i]} }

	// The first publish of each term its owner has no holder for is routed;
	// the peer that accepts it is the holder of the term's other items.
	var firsts, rest []learnItem
	routing := make(map[ownerTerm]bool)
	for _, it := range items {
		if k := keyOf(it); holders[k] == "" && !routing[k] {
			routing[k] = true
			firsts = append(firsts, it)
		} else {
			rest = append(rest, it)
		}
	}
	run := func(jobs []job[learnItem]) {
		outs, errs := fanout.Map(ctx, n.exec, "publish", len(jobs), func(ctx context.Context, i int) ([]publishResult, error) {
			return jobs[i].p.publishJob(ctx, &jobs[i]), nil
		})
		for i, j := range jobs {
			for k, it := range j.items {
				if errs[i] != nil {
					it.d.landed[it.i] = publishResult{err: errs[i]}
				} else {
					it.d.landed[it.i] = outs[i][k]
				}
			}
		}
	}
	run(groupJobs(firsts, learnItem.peer, func(learnItem) simnet.Addr { return "" }))
	for _, it := range firsts {
		holders[keyOf(it)] = it.d.landed[it.i].at // "" on failure: the term's other items route too
	}
	run(groupJobs(rest, learnItem.peer, func(it learnItem) simnet.Addr { return holders[keyOf(it)] }))

	for _, d := range docs {
		for i, t := range d.publish {
			if r := d.landed[i]; r.err == nil {
				d.p.recordPublished(d.st, t, r.at)
				continue
			}
			delete(d.st.indexed, t)
			d.changes--
			if d.err == nil {
				d.err = d.landed[i].err
			}
		}
	}
}

// publishJob sends one publish job: in a batch, every item's posting.
func (p *Peer) publishJob(ctx context.Context, j *job[learnItem]) []publishResult {
	send := func() ([]publishResult, []bool, bool) {
		req := publishReq{CheckArc: true}
		for _, it := range j.items {
			req.Items = append(req.Items, p.itemFor(it.d.st, it.d.publish[it.i]))
		}
		reply, err := p.net.ring.Net().CallCtx(ctx, p.Addr(), j.holder, simnet.Message{Type: msgPublish, Payload: req, Size: req.size()})
		resp, ok := reply.Payload.(publishResp)
		if err != nil || !ok {
			return nil, nil, false
		}
		out, refused := make([]publishResult, len(j.items)), make([]bool, len(j.items))
		for k := range out {
			out[k].at = j.holder
		}
		for _, k := range resp.Refused {
			if k >= 0 && k < len(refused) {
				refused[k] = true
			}
		}
		return out, refused, true
	}
	return settle(j, p.net.met.learnRerouted, send, func(it learnItem) publishResult {
		at, err := p.routePublish(ctx, it.d.st, it.d.publish[it.i])
		return publishResult{at, err}
	})
}
