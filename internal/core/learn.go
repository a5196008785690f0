package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements the learning iteration (§5.3, Algorithm 1) as one
// sweep over a set of documents, in four network-wide phases with a barrier
// between them:
//
//  1. Poll. Every owner sends each indexing peer one sprite.poll carrying
//     every (document, term) item whose posting that peer holds
//     (its holder of record), each with its watermark.
//  2. Fold. Each document folds its answers in sorted-term order into the
//     per-term statistics, runs the §7 hot-term advisory, rebuilds its rank
//     list and re-anchors the postings a poll found missing. It only decides
//     what to withdraw (pulls) and what to publish, and sends nothing.
//  3. Withdraw. Each owner sends each holder one sprite.publish carrying every
//     withdrawal bound there (withdrawals): retired terms' postings and
//     re-anchored postings' old copies.
//  4. Publish. Each owner sends each indexing peer one sprite.publish carrying
//     every publish bound there: a re-anchor to the peer that answered
//     Missing, a term one of its documents has a holder for to that holder,
//     and any other term to the peer its own node names for the key
//     (chord.Node.LocalOwner), as a query's fetch does.
//
// The phases are protocols of exchange (send.go). A poll or publish batch is
// addressed from the owner's records, so the holder checks each item's key
// against its own arc (chord.Node.Serves) and refuses what it does not serve.
// Refused items, items whose holder is the owner itself or unknown, and every
// item of a batch whose holder is dead or did not answer go alone by the
// term's key, so a stale or dead holder costs only its own batch. Unshare, a
// failed share and the stale-ledger flush are a withdraw phase alone.

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
	// pulls and publish hold what the fold decided, in decision order.
	pulls   []pull
	publish []string
	added   int // publish[:added] are new terms, the rest re-anchored ones
	changes int
	err     error
}

// pull withdraws d's posting for term from at, its holder of record ("" none).
// A retiring pull takes the term out of the index, for cand when it is a
// replacement; any other takes back a copy the index no longer uses.
type pull struct {
	d      *sweepDoc
	term   string
	at     simnet.Addr
	retire bool
	cand   string
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
	var docs []*sweepDoc
	for i, id := range ids {
		if p := owners[i]; p != nil {
			if st := p.state(id); st != nil {
				docs = append(docs, &sweepDoc{p: p, id: id, st: st})
			}
		}
	}
	docs = lockDocs(docs)
	defer unlockDocs(docs)
	if len(docs) == 0 {
		return 0, nil
	}
	for _, d := range docs {
		d.terms = d.st.indexedTerms()
		d.polls = make([]pollOut, len(d.terms))
		n.met.learnRounds.Inc()
	}
	n.pollPhase(ctx, docs)
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("core: learning: %w", err)
	}
	for _, d := range docs {
		d.foldPolls()
		d.applyRankList()
		d.reanchor()
	}
	n.withdrawPhase(ctx, docs)
	n.publishPhase(ctx, docs)

	changes := 0
	var first error
	for _, d := range docs {
		n.met.learnChanges.Add(int64(d.changes))
		changes += d.changes
		if d.err != nil && first == nil {
			first = fmt.Errorf("core: learning %s: %w", d.id, d.err)
		}
	}
	return changes, first
}

// lockDocs locks every document's state and returns, in the order given, the
// documents still shared. Locks are taken in doc-ID order, so two sweeps
// cannot wait on each other in a cycle, and no peer lock is held meanwhile
// (Snapshot takes a peer's lock, then its documents').
func lockDocs(docs []*sweepDoc) []*sweepDoc {
	byID := docs
	if len(docs) > 1 {
		byID = slices.Clone(docs)
		slices.SortFunc(byID, func(a, b *sweepDoc) int { return strings.Compare(string(a.id), string(b.id)) })
	}
	for _, d := range byID {
		d.st.mu.Lock()
	}
	return slices.DeleteFunc(docs, func(d *sweepDoc) bool {
		if d.st.unshared {
			d.st.mu.Unlock()
		}
		return d.st.unshared
	})
}

func unlockDocs(docs []*sweepDoc) {
	for _, d := range docs {
		d.st.mu.Unlock()
	}
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
		holder:   func(it learnItem) simnet.Addr { return it.d.st.terms[term(it)].at },
		request: func(to simnet.Addr, items []learnItem, checkArc bool) simnet.Message {
			req := pollReq{CheckArc: checkArc}
			for _, it := range items {
				if len(req.Docs) == 0 || req.Docs[len(req.Docs)-1].Doc != it.d.id {
					req.Docs = append(req.Docs, pollDoc{Doc: it.d.id, DocTerms: it.d.terms})
				}
				doc := &req.Docs[len(req.Docs)-1]
				doc.Terms = append(doc.Terms, pollTerm{Term: term(it), Since: it.d.st.terms[term(it)].mark.sinceAt(to)})
			}
			return simnet.Message{Type: msgPoll, Payload: req}
		},
		read: func(reply simnet.Message, at simnet.Addr, got []pollOut, refused []bool) error {
			resp, ok := reply.Payload.(pollResp)
			if !ok || len(resp.Items) != len(got) {
				return badReply(reply, at, len(got))
			}
			for k, r := range resp.Items {
				got[k], refused[k] = pollOut{res: r, at: at}, r.Refused
			}
			return nil
		},
		reask: func(it learnItem, sent, served simnet.Addr) bool {
			mark := it.d.st.terms[term(it)].mark
			return mark.sinceAt(served) != mark.sinceAt(sent)
		},
	}
}

// foldPolls is Algorithm 1's steps 1 and 2 for the document, given the
// answers to its polls: advance each answered term's watermark, retire the hot
// terms (§7) and fold the incremental query set Q′ into the running
// statistics (max qScore, cumulative QF).
func (d *sweepDoc) foldPolls() {
	st, cfg := d.st, d.p.net.cfg
	var incremental []polledQuery
	var hot []string
	for i, term := range d.terms {
		if d.polls[i].at == "" {
			continue
		}
		res := d.polls[i].res
		ot := st.terms[term]
		ot.mark = pollMark{At: d.polls[i].at, Since: res.NewSince}
		st.terms[term] = ot // not empty, and its flag unchanged
		if cfg.HotTermDF > 0 && res.IndexedDF >= cfg.HotTermDF {
			hot = append(hot, term)
		}
		incremental = append(incremental, res.Queries...)
	}

	// §7 hot-term advisory: drop terms whose indexed document frequency is
	// so high that their IDF — and hence their contribution to similarity —
	// is negligible, while their maintenance load on the indexing peer is
	// maximal. The freed slots are refilled by this iteration's selection.
	// Every owner reads the same pre-sweep IndexedDF, so every document of
	// the sweep that indexes a hot term retires it. The ban commits only if
	// the withdrawal goes through (pull.settle).
	for _, term := range hot {
		if st.nIndexed <= 1 {
			break // never strip a document's last index term
		}
		if st.banned == nil {
			st.banned = make(map[string]bool)
		}
		st.banned[term] = true
		d.retire(term, "")
	}

	// Algorithm 1 lines 4–16. A poll answers a query once with its issuance
	// count; a query whose hash collided in the history sits in two slots and
	// comes back as two entries in a row, so each run of equal queries folds
	// once, adding its counts to QF.
	for k := 0; k < len(incremental); {
		q := incremental[k].Terms
		var n int64
		for ; k < len(incremental) && slices.Equal(incremental[k].Terms, q); k++ {
			n += int64(incremental[k].Copies)
		}
		qs := qScore(q, st.doc)
		for i, t := range q {
			// Each distinct term once: queries are a handful of terms, so a
			// scan of the prefix de-duplicates without building a set.
			if containsTerm(q[:i], t) || !st.doc.Contains(t) {
				continue
			}
			ot := st.terms[t]
			ot.qf = int32(min(int64(ot.qf)+n, math.MaxInt32)) // saturates
			ot.maxQS = max(ot.maxQS, qs)
			st.terms[t] = ot // not empty, and its flag unchanged
		}
	}
}

// reanchor makes the peer that answered Missing the holder of record of every
// term still indexed — its holder crashed, or its key moved to a peer nobody
// handed the entry to — and publishes the posting there: §1's owner probing
// made effectful. The copy at a different previous holder is withdrawn.
// Re-anchors count in sprite.learn.reanchored, not as index changes.
func (d *sweepDoc) reanchor() {
	st := d.st
	for i, term := range d.terms {
		ot := st.terms[term]
		if !d.polls[i].res.Missing || !ot.indexed || ot.at == "" {
			continue
		}
		if ot.at != d.polls[i].at {
			d.pulls = append(d.pulls, pull{d: d, term: term, at: ot.at})
		}
		ot.at = d.polls[i].at
		st.set(term, ot)
		d.p.net.met.learnReanchored.Inc()
		d.publish = append(d.publish, term)
	}
}

// retire decides to withdraw term from the index, for cand ("" none).
func (d *sweepDoc) retire(term, cand string) {
	d.st.index(term, false)
	d.pulls = append(d.pulls, pull{d: d, term: term, at: d.st.terms[term].at, retire: true, cand: cand})
}

// pullStale decides to withdraw every copy the stale ledger names, and empties
// it. A record of a holder that left the network is dropped: its copies left
// with it. So is one of the holder the term's record names again — it
// migrated back — as withdrawing there would delete the live entry.
func (d *sweepDoc) pullStale() {
	for _, term := range sortedKeys(d.st.stale) {
		for _, at := range d.st.stale[term] {
			if _, ok := d.p.net.Peer(at); ok && d.st.terms[term].at != at {
				d.pulls = append(d.pulls, pull{d: d, term: term, at: at})
			}
		}
	}
	d.st.stale = nil
}

// withdrawPhase sends the pulls of docs, never empty, and settles each.
func (n *Network) withdrawPhase(ctx context.Context, docs []*sweepDoc) {
	items := docs[0].pulls // one document's need no copy
	if len(docs) > 1 {
		items = nil
		for _, d := range docs {
			items = append(items, d.pulls...)
		}
	}
	_, errs := exchange(ctx, items, withdrawals)
	for k, pl := range items {
		pl.settle(errs[k])
	}
}

// withdrawals is the withdraw protocol: an item is a pull, answered with its
// holder, which never refuses one. Its items ride sprite.publish
// flagged, carrying term and document only, and are never arc-checked or
// re-routed: an entry lives at the peer that last accepted it, whatever the
// ring says now, and a withdrawal elsewhere would orphan it. So an item goes
// to the holder its record names, the owner itself included, and fails with
// its batch; only one naming none is routed by its key.
var withdrawals = &protocol[pull, simnet.Addr]{
	stage:  "withdraw",
	pinned: true,
	from:   func(pl pull) *Peer { return pl.d.p },
	term:   func(pl pull) string { return pl.term },
	holder: func(pl pull) simnet.Addr { return pl.at },
	request: func(_ simnet.Addr, items []pull, _ bool) simnet.Message {
		req := publishReq{Items: make([]publishItem, len(items))}
		for k, pl := range items {
			req.Items[k] = publishItem{Term: pl.term, Posting: index.Posting{Doc: pl.d.id}, Withdraw: true}
		}
		return simnet.Message{Type: msgPublish, Payload: req}
	},
	read: readAccepted,
}

// settle applies the pull's outcome. A retired term the holder confirmed is
// forgotten; one it did not stays indexed as before the fold, its ban rolled
// back so that the next iteration retries (a ban kept while the entry
// survives would wedge the document), a replacement's candidate is not
// published and fails the document, and no new term past MaxIndexTerms is
// published. An old copy not withdrawn goes on the stale ledger.
func (pl pull) settle(err error) {
	d, st := pl.d, pl.d.st
	if err == nil {
		if pl.retire {
			forgetTerm(st, pl.term)
			d.p.net.met.termsRetired.Inc()
		}
		return
	}
	// No handler ran at the holder, so nothing dropped the term's cached list.
	d.p.net.caches.invalidateTerm(pl.term)
	if !pl.retire {
		markStale(st, pl.term, pl.at)
		return
	}
	st.index(pl.term, true)
	delete(st.banned, pl.term)
	if pl.cand != "" {
		if k := slices.Index(d.publish[:d.added], pl.cand); k >= 0 {
			d.cancel(k)
		}
		d.err = cmp.Or(d.err, fmt.Errorf("core: withdraw %q: %w", pl.term, err))
	}
	if st.nIndexed > d.p.net.cfg.MaxIndexTerms && d.added > 0 {
		d.cancel(d.added - 1)
	}
}

// cancel takes back the decision to publish new term publish[k].
func (d *sweepDoc) cancel(k int) {
	d.st.index(d.publish[k], false)
	d.publish = slices.Delete(d.publish, k, k+1)
	d.added--
	d.changes--
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
		for t, ot := range d.st.terms {
			if k := (ownerTerm{d.p, t}); ot.at != "" && holders[k] == "" {
				holders[k] = ot.at
			}
		}
		for i := range d.publish {
			items = append(items, learnItem{d, i})
		}
	}
	ats, errs := exchange(ctx, items, n.publishes(func(it learnItem) simnet.Addr {
		t := it.d.publish[it.i]
		if it.i >= it.d.added {
			return it.d.st.terms[t].at // the peer that answered Missing
		}
		if at := holders[ownerTerm{it.d.p, t}]; at != "" {
			return at
		}
		return it.d.p.node.LocalOwner(chordid.HashKey(t)).Addr
	}))
	for k, it := range items {
		d, t := it.d, it.d.publish[it.i]
		if errs[k] == nil {
			d.p.recordPublished(d.st, t, ats[k])
			continue
		}
		forgetTerm(d.st, t)
		if it.i < d.added {
			d.changes--
			d.err = cmp.Or(d.err, fmt.Errorf("core: publish %q: %w", t, errs[k]))
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
			return simnet.Message{Type: msgPublish, Payload: req}
		},
		read: readAccepted,
	}
}

// readAccepted reads a publishResp: at accepted every item it did not refuse,
// and a refused one has no peer — got may be exchange's output itself, which
// is all a pinned protocol's refused item gets.
func readAccepted(reply simnet.Message, at simnet.Addr, got []simnet.Addr, refused []bool) error {
	resp, ok := reply.Payload.(publishResp)
	if !ok {
		return badReply(reply, at, len(got))
	}
	for k := range got {
		got[k] = at
	}
	for _, a := range resp.Answers {
		if a.Refused && a.Item >= 0 && a.Item < len(got) {
			got[a.Item], refused[a.Item] = "", true
		}
	}
	return nil
}
