package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// This file implements the owner-peer role: initial term selection (§5.2),
// the periodic learning iteration (§5.3, Algorithm 1), and query processing
// from the querying peer's side (§4).

// docState is the owner's per-document learning state. Per Algorithm 1, the
// owner does not retain past queries — only, per term of the document, the
// cumulative query frequency and the maximum query score seen so far, which
// together make Score computable from each iteration's incremental query set
// alone.
type docState struct {
	// mu serializes learning, refresh, unshare, and term inspection for
	// this document. It is never held across another peer's handler that
	// takes it back (handlers only touch indexingState), so lock ordering
	// is trivially acyclic.
	mu  sync.Mutex
	doc *corpus.Document
	// sketch is the document's serialized feature sketch, computed once at
	// share time ("" when sketching is disabled) and immutable afterwards —
	// readers outside mu (publish fan-outs, the flooding scan) rely on that.
	sketch string
	// indexed is the current set of global index terms.
	indexed map[string]bool
	// stats holds QF and max-qScore per document term that appeared in any
	// seen query ("At every owner peer, for each term in a document, two
	// values are stored: qScore and QF", §5.1).
	stats map[string]*termStat
	// since is the per-term poll watermark into the history of the indexing
	// peer that issued it: only newer queries are pulled (the incremental
	// query set Q′).
	since map[string]pollMark
	// publishedAt remembers which peer last accepted each term's posting, so
	// refresh can detect ownership migration after churn.
	publishedAt map[string]simnet.Addr
	// banned holds terms retired by the §7 hot-term advisory; they are never
	// re-selected for this document ("The document owner peers can then
	// discard the term and pick an analogously important term to index").
	banned map[string]bool
	// stale records peers that may still hold a withdrawn copy of a term's
	// posting: a refresh migration whose withdrawal at the old indexing peer
	// failed leaves the address here, and later refreshes/unshares retry
	// until the copy is confirmed gone (or the holder leaves for good).
	stale map[string][]simnet.Addr
}

// pollMark is a poll watermark with the peer it belongs to: Since is a
// position in At's private sequence counter (indexingState.seq) and means
// nothing at any other peer. Fields are exported for the snapshot.
type pollMark struct {
	At    simnet.Addr
	Since uint64
}

// sinceAt is the watermark a poll that at serves must carry.
func (m pollMark) sinceAt(at simnet.Addr) uint64 {
	if m.At != at {
		return 0
	}
	return m.Since
}

// pollHint maps the peer a poll is bound for to the owner hint its route is
// given: the identity. A variable so that a test can route the polls unhinted
// and demand the same learning (export_test.go); nothing else assigns it.
var pollHint = func(at simnet.Addr) simnet.Addr { return at }

type termStat struct {
	qf    int     // cumulative query frequency QF(t)
	maxQS float64 // largest qScore over all queries containing t
}

// score computes the learning rank score under the configured variant. The
// paper's combined formula is Score(t, D) = qScore · log₁₀(QF) (§5.3; the
// worked example in Fig. 2(b) uses base-10 logarithms: 0.75·log 20 = 0.975).
func (ts *termStat) score(v ScoreVariant) float64 {
	if ts.qf <= 0 {
		return 0
	}
	switch v {
	case ScoreQScoreOnly:
		return ts.maxQS
	case ScoreQFOnly:
		return float64(ts.qf)
	case ScoreQScoreTimesQF:
		return ts.maxQS * float64(ts.qf)
	default:
		return ts.maxQS * math.Log10(float64(ts.qf))
	}
}

// qScore is the query-document similarity used for learning:
// qScore(Q, D) = |Q ∩ D| / |Q| (§5.3). The conventional IR formula is
// deliberately not used here — when selecting descriptive queries for a
// document, a term occurring in many queries is more (not less) important.
func qScore(queryTerms []string, doc *corpus.Document) float64 {
	if len(queryTerms) == 0 {
		return 0
	}
	hit := 0
	for _, t := range queryTerms {
		if doc.Contains(t) {
			hit++
		}
	}
	return float64(hit) / float64(len(queryTerms))
}

// share performs initial term selection and publication (§5.2): the top-F
// most frequent terms of the (already preprocessed) document become its
// first global index terms.
func (p *Peer) share(ctx context.Context, doc *corpus.Document) error {
	st := &docState{
		doc:     doc,
		sketch:  p.net.docSketchFor(doc),
		indexed: make(map[string]bool),
		stats:   make(map[string]*termStat),
		since:   make(map[string]pollMark),
	}
	for _, term := range doc.TopTerms(p.net.cfg.InitialTerms) {
		if err := p.publishTerm(ctx, st, term); err != nil {
			// Roll back the terms already published: a failed share must not
			// leave entries behind for a document the network will never list
			// as shared. Best-effort, on a fresh context — the caller's may
			// already be done, and an unreachable indexing peer keeps its
			// copy only until it dies or is recycled.
			for _, t := range sortedIndexedTerms(st) {
				p.unpublishTerm(context.Background(), st, t) //nolint:errcheck
			}
			return err
		}
	}
	p.mu.Lock()
	p.owned[doc.ID] = st
	p.mu.Unlock()
	return nil
}

// publishTerm routes a (term → posting) publication through the DHT to the
// term's indexing peer and records it in the document's indexed set.
func (p *Peer) publishTerm(ctx context.Context, st *docState, term string) error {
	_, owner, _, err := p.node.Route(ctx, chordid.HashKey(term), p.publishMsg(st, term), nil, "")
	if err != nil {
		return fmt.Errorf("core: publish %q: %w", term, err)
	}
	p.recordPublished(st, term, owner.Addr)
	return nil
}

// publishTermTo publishes to a known indexing peer and, on success, records
// the term as indexed there. Callers that resolved the target themselves
// (refresh) use it to keep the lookup and the bookkeeping apart.
func (p *Peer) publishTermTo(ctx context.Context, st *docState, term string, target simnet.Addr) error {
	if err := p.sendPublish(ctx, st, term, target); err != nil {
		return err
	}
	p.recordPublished(st, term, target)
	return nil
}

// recordPublished notes that target accepted term's posting.
func (p *Peer) recordPublished(st *docState, term string, target simnet.Addr) {
	p.net.met.termsPublished.Inc()
	st.indexed[term] = true
	if st.publishedAt == nil {
		st.publishedAt = make(map[string]simnet.Addr)
	}
	st.publishedAt[term] = target
}

// publishMsg builds the publication of st's posting for term. It only reads
// st, so it is safe while the caller holds st.mu across a fan-out.
func (p *Peer) publishMsg(st *docState, term string) simnet.Message {
	posting := index.Posting{
		Doc:    st.doc.ID,
		Owner:  string(p.Addr()),
		Freq:   st.doc.TF[term],
		DocLen: st.doc.Length,
		Sketch: st.sketch,
	}
	return simnet.Message{
		Type:    msgPublish,
		Payload: publishReq{Term: term, Posting: posting},
		Size:    len(term) + posting.WireSize(),
	}
}

// sendPublish performs the raw publish call with no docState bookkeeping; it
// is safe to fan out while st.mu is held by the caller (workers only read).
func (p *Peer) sendPublish(ctx context.Context, st *docState, term string, target simnet.Addr) error {
	if _, err := p.net.ring.Net().CallCtx(ctx, p.Addr(), target, p.publishMsg(st, term)); err != nil {
		return fmt.Errorf("core: publish %q to %s: %w", term, target, err)
	}
	return nil
}

// unpublishTerm removes a retired term's posting from its indexing peer. The
// entry lives at the peer that last accepted it (publishedAt), so the
// removal is addressed there directly — after churn a fresh lookup can name
// a different peer than the one actually holding the entry, and unpublishing
// at the wrong peer would orphan the real copy. Local bookkeeping is dropped
// only once the remote removal succeeds; on failure the term stays indexed,
// so callers can retry, force-forget (unshare), or leave it for the next
// refresh.
func (p *Peer) unpublishTerm(ctx context.Context, st *docState, term string) error {
	target, known := st.publishedAt[term]
	if !known {
		ref, _, err := p.node.LookupCtx(ctx, chordid.HashKey(term), nil)
		if err != nil {
			return fmt.Errorf("core: unpublish %q: %w", term, err)
		}
		target = ref.Addr
	}
	stale, err := p.sendUnpublish(ctx, target, term, st.doc.ID)
	if err != nil {
		return err
	}
	for _, a := range stale {
		markStale(st, term, a)
	}
	delete(st.indexed, term)
	delete(st.since, term)
	delete(st.publishedAt, term)
	p.net.met.termsRetired.Inc()
	return nil
}

// sendUnpublish performs the raw unpublish call against a known holder. It
// returns the replica holders the indexing peer could not reach while
// dropping the entry's copies; callers must queue those on the document's
// stale list or the copies leak.
func (p *Peer) sendUnpublish(ctx context.Context, target simnet.Addr, term string, doc index.DocID) ([]simnet.Addr, error) {
	reply, err := p.net.ring.Net().CallCtx(ctx, p.Addr(), target, simnet.Message{
		Type:    msgUnpublish,
		Payload: unpublishReq{Term: term, Doc: doc},
		Size:    len(term) + len(doc),
	})
	if err != nil {
		return nil, fmt.Errorf("core: unpublish %q from %s: %w", term, target, err)
	}
	if resp, ok := reply.Payload.(unpublishResp); ok {
		return resp.StaleReplicas, nil
	}
	return nil, nil
}

// indexedTerms returns the document's current global index terms, sorted.
func (p *Peer) indexedTerms(doc index.DocID) []string {
	p.mu.Lock()
	st := p.owned[doc]
	p.mu.Unlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.indexed))
	for t := range st.indexed {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// insertQuery caches the keywords at every responsible indexing peer without
// retrieving postings. Per-term insertions are independent, so they fan out;
// every reachable peer is reached even when some fail, and the first failure
// in term order is reported (the sequential loop's contract).
func (p *Peer) insertQuery(ctx context.Context, terms []string) error {
	dts := distinctTerms(terms)
	errs := fanout.ForEach(ctx, p.net.exec, "insert", len(dts), func(ctx context.Context, i int) error {
		_, _, _, err := p.node.Route(ctx, chordid.HashKey(dts[i]), simnet.Message{
			Type:    msgCacheQuery,
			Payload: cacheQueryReq{Query: terms},
			Size:    sizeTerms(terms),
		}, nil, "")
		return err
	})
	return fanout.FirstError(errs)
}

// errNotOwned reports a learning request for a document this peer no longer
// owns (it raced with an unshare); sweeps skip it rather than failing.
var errNotOwned = errors.New("document not owned by peer")

// search implements §4's query processing from the querying peer: hash each
// keyword, fetch postings from the responsible indexing peers, consolidate
// per-document partial scores, and rank with the Lee et al. similarity.
// Unreachable terms are skipped (§7's degraded mode).
func (p *Peer) search(terms []string, k int, record bool) ir.RankedList {
	rl, _ := p.searchCtx(context.Background(), terms, k, record, nil)
	return rl
}

// searchCtx is search under a context with an optional (possibly nil) trace
// span: each query term gets a child span covering its DHT lookup (one
// grandchild span per Chord hop) and the postings fetch from the indexing
// peer. Fetches run under the network's resilience policy (retry, hedging,
// replica failover — see fetchTermPostings). The fetched lists stay
// compressed: ranking is one k-way merge over their cursors, terms in query
// order (ir.MergeTopK), and nothing is built per posting.
//
// Error contract: a done context aborts the search, returning nil and an
// error wrapping ctx.Err(). Terms that failed for any other reason are
// skipped; if any were, the ranked list over the remaining terms is returned
// together with a *PartialError naming them (§7's degraded mode, made
// visible).
//
// When caching is enabled the result cache short-circuits verbatim repeats
// of (query, k) and the postings cache short-circuits per-term fetches; both
// keep the learning pipeline identical to the uncached run by re-recording
// the query at each term's indexing peer (see recordQueryAt). Results are
// stored only if the caches' generation did not move while the search ran, so
// a concurrent invalidation (peer failure, index mutation) can never be
// undone by a search that read the pre-invalidation state.
func (p *Peer) searchCtx(ctx context.Context, terms []string, k int, record bool, span *telemetry.Span) (ir.RankedList, error) {
	p.net.met.searches.Inc()
	if p.net.cfg.Telemetry != nil {
		start := p.net.clock.Now()
		defer func() {
			p.net.met.queryLatency.Observe(p.net.clock.Now().Sub(start).Microseconds())
		}()
	}

	rc := p.net.caches.results
	var rkey string
	if rc != nil {
		rkey = resultKey(terms, k)
		if ent, ok := rc.Get(rkey); ok {
			span.Annotate("result_cache", "hit")
			if record {
				// The uncached path records the query once per distinct term
				// at that term's indexing peer; replay the same fan-out so
				// query histories (and hence learning) don't diverge. A failed
				// recording is a dropped history entry — counted, so skewed
				// learning under partial outages is visible in telemetry.
				dts := distinctTerms(terms)
				errs := fanout.ForEach(ctx, p.net.exec, "record", len(dts), func(ctx context.Context, i int) error {
					return p.recordQueryAtErr(ctx, ent.peers[dts[i]], terms)
				})
				for _, rerr := range errs {
					if rerr != nil {
						p.net.met.recordErrors.Inc()
					}
				}
			}
			// A copy, so the caller cannot reach the cached list — and never
			// nil, so a query that matched nothing reads the same as uncached.
			return append(ir.RankedList{}, ent.rl...), nil
		}
	}
	// The generation observed before any remote read; the result is stored
	// only if it is still current at store time (see cache.PutAt).
	rcGen := rc.Generation()

	pc := p.net.caches.postings
	qtf := make(map[string]int, len(terms))
	for _, t := range terms {
		qtf[t]++
	}
	n := p.net.cfg.SurrogateN
	var termPeers map[string]simnet.Addr
	if rc != nil {
		termPeers = make(map[string]simnet.Addr, len(terms))
	}

	// Per-term pipeline, fanned out: each worker performs the Chord lookup,
	// postings fetch (cached or resilient) and query-history recording, and
	// hands back the term's still-compressed list. The single-threaded
	// collection below walks the terms in query order, so failure lists and
	// counters are identical to the sequential loop regardless of completion
	// order, and one streaming merge over the fetched cursors (ir.MergeTopK)
	// adds each document's contributions in that same order.
	type termOut struct {
		resp getPostingsResp
		peer simnet.Addr
	}
	dts := distinctTerms(terms)
	outs, errs := fanout.Map(ctx, p.net.exec, "fetch", len(dts), func(ctx context.Context, i int) (termOut, error) {
		term := dts[i]
		tsp := span.StartChild("term")
		tsp.Annotate("term", term)
		defer tsp.Finish()
		if pc != nil {
			ent, outcome, err := p.fetchPostingsCached(ctx, term, tsp)
			if err != nil {
				tsp.Annotate("error", err.Error())
				return termOut{}, err
			}
			tsp.Annotate("postings_cache", outcome.String())
			if record {
				p.recordQueryAt(ent.peer, terms)
			}
			return termOut{resp: ent.resp, peer: ent.peer}, nil
		}
		resp, peer, err := p.fetchTermPostings(ctx, term, terms, record, tsp)
		if err != nil {
			tsp.Annotate("error", err.Error())
			return termOut{}, err
		}
		tsp.Annotate("indexing_peer", string(peer))
		return termOut{resp: resp, peer: peer}, nil
	})

	var failed []TermFailure
	merge := make([]ir.MergeTerm, 0, len(dts))
	for i, term := range dts {
		if errs[i] != nil {
			// A done caller context aborts the whole search; any other fetch
			// failure records the term as skipped and degrades (§7).
			if ctx.Err() != nil {
				return nil, fmt.Errorf("core: search term %q: %w", term, errs[i])
			}
			p.net.met.termsSkipped.Inc()
			failed = append(failed, TermFailure{Term: term, Err: errs[i]})
			continue
		}
		if termPeers != nil {
			termPeers[term] = outs[i].peer
		}
		if df := outs[i].resp.IndexedDF; df > 0 {
			merge = append(merge, ir.MergeTerm{
				Cursor: outs[i].resp.Postings.Cursor(),
				WQ:     ir.QueryWeight(qtf[term], len(terms), n, df),
				N:      n,
				DF:     df,
			})
		}
	}
	rl := ir.MergeTopK(merge, k)
	if rc != nil && len(failed) == 0 {
		ent := resultEntry{rl: append(ir.RankedList(nil), rl...), peers: termPeers}
		rc.PutAt(rcGen, rkey, ent, resultBytes(ent))
	}
	if len(failed) > 0 {
		p.net.met.partials.Inc()
		return rl, &PartialError{Failures: failed}
	}
	return rl, nil
}

// learnDoc runs one learning iteration for a document (§5.3, Algorithm 1):
//
//  1. Poll the indexing peer of every current index term for the incremental
//     query set Q′ (each query returned by exactly one peer).
//  2. Fold Q′ into the per-term running statistics (max qScore, cumulative
//     QF) and recompute Score(t) = qScore·log₁₀(QF) for the rank list RL.
//  3. Publish up to TermsPerIteration new high-Score terms; once the
//     MaxIndexTerms cap is reached, replace the lowest-scoring indexed terms
//     instead (Fig. 2(a)'s insertion + replacement behaviour).
//
// It returns the number of index changes (publishes + replacements).
func (p *Peer) learnDoc(ctx context.Context, docID index.DocID) (int, error) {
	p.mu.Lock()
	st := p.owned[docID]
	p.mu.Unlock()
	if st == nil {
		return 0, fmt.Errorf("core: peer %s: %q: %w", p.Addr(), docID, errNotOwned)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	p.net.met.learnRounds.Inc()

	// Step 1: pull the incremental query set.
	docTerms := make([]string, 0, len(st.indexed))
	for t := range st.indexed {
		docTerms = append(docTerms, t)
	}
	sort.Strings(docTerms)

	// The polls are pure reads of the indexing peers' histories, so they fan
	// out; the watermark updates and incremental-set assembly fold in term
	// order below (st.mu is held across the fan-out — workers never write st).
	// Each poll is bound for the peer holding the term's posting, which is
	// where the term's queries are recorded unless the ring has changed: that
	// address is the route's owner hint, and the watermark goes along only if
	// that peer issued it.
	type pollOut struct {
		resp pollResp
		at   simnet.Addr
	}
	outs, perrs := fanout.Map(ctx, p.net.exec, "poll", len(docTerms), func(ctx context.Context, i int) (pollOut, error) {
		term := docTerms[i]
		mark, at := st.since[term], st.publishedAt[term]
		req := pollReq{Term: term, Doc: docID, DocTerms: docTerms, Since: mark.sinceAt(at)}
		msg := simnet.Message{Type: msgPoll, Payload: req, Size: len(term) + sizeTerms(docTerms) + 8}
		reply, owner, _, err := p.node.Route(ctx, chordid.HashKey(term), msg, nil, pollHint(at))
		if since := mark.sinceAt(owner.Addr); err == nil && since != req.Since {
			// The ring gave the poll to another peer, whose history it read
			// with a watermark that is not its own: ask that peer again.
			req.Since = since
			msg.Payload = req
			reply, err = p.net.ring.Net().CallCtx(ctx, p.Addr(), owner.Addr, msg)
		}
		if err != nil {
			return pollOut{}, nil // indexing peer unreachable; learn from the rest
		}
		return pollOut{resp: reply.Payload.(pollResp), at: owner.Addr}, nil
	})
	// Workers never return errors themselves; a non-nil slot means the item
	// was skipped because the context was done — abort, as the sequential
	// loop's per-term ctx check did.
	if cerr := fanout.FirstError(perrs); cerr != nil {
		return 0, cerr
	}
	var incremental [][]string
	var hot []string
	for i, term := range docTerms {
		if outs[i].at == "" {
			continue
		}
		resp := outs[i].resp
		st.since[term] = pollMark{At: outs[i].at, Since: resp.NewSince}
		if p.net.cfg.HotTermDF > 0 && resp.IndexedDF >= p.net.cfg.HotTermDF {
			hot = append(hot, term)
		}
		incremental = append(incremental, resp.Queries...)
	}

	// §7 hot-term advisory: drop terms whose indexed document frequency is
	// so high that their IDF — and hence their contribution to similarity —
	// is negligible, while their maintenance load on the indexing peer is
	// maximal. The freed slots are refilled by this iteration's selection.
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
			continue
		}
	}

	// Step 2: fold Q′ into the running statistics (Algorithm 1 lines 4–16).
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

	// Step 3: rebuild the rank list and apply additions/replacements.
	changes, err := p.applyRankList(ctx, st)
	p.net.met.learnChanges.Add(int64(changes))
	return changes, err
}

// rankedTerm pairs a term with its learning rank key.
type rankedTerm struct {
	term  string
	score float64
	qs    float64
	tf    int
}

func (p *Peer) rankList(st *docState) []rankedTerm {
	variant := p.net.cfg.Score
	rl := make([]rankedTerm, 0, len(st.stats))
	for t, ts := range st.stats {
		rl = append(rl, rankedTerm{term: t, score: ts.score(variant), qs: ts.maxQS, tf: st.doc.TF[t]})
	}
	// Sort by Score; ties (notably QF=1 ⇒ Score=0) break by qScore, then
	// document term frequency, then term, keeping selection deterministic.
	sort.Slice(rl, func(i, j int) bool {
		a, b := rl[i], rl[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.qs != b.qs {
			return a.qs > b.qs
		}
		if a.tf != b.tf {
			return a.tf > b.tf
		}
		return a.term < b.term
	})
	return rl
}

func (p *Peer) applyRankList(ctx context.Context, st *docState) (int, error) {
	rl := p.rankList(st)
	budget := p.net.cfg.TermsPerIteration
	cap := p.net.cfg.MaxIndexTerms
	changes := 0

	// indexedScore returns the replacement-priority score of a currently
	// indexed term: learned terms use Score; never-queried terms (initial
	// frequency picks the learner knows nothing about) rank below everything
	// and are the first to be replaced — cf. Fig. 1, where frequent-but-
	// unqueried term c is not worth indexing.
	indexedScore := func(t string) (float64, float64) {
		if ts, ok := st.stats[t]; ok {
			return ts.score(p.net.cfg.Score), ts.maxQS
		}
		return -1, -1
	}

	for _, cand := range rl {
		if budget == 0 {
			break
		}
		if st.indexed[cand.term] || st.banned[cand.term] {
			continue
		}
		if len(st.indexed) < cap {
			if err := p.publishTerm(ctx, st, cand.term); err != nil {
				return changes, err
			}
			changes++
			budget--
			continue
		}
		// At the cap: find the weakest indexed term and replace it if the
		// candidate ranks strictly higher.
		worst, worstScore, worstQS := "", math.Inf(1), math.Inf(1)
		for t := range st.indexed {
			s, q := indexedScore(t)
			if s < worstScore || (s == worstScore && q < worstQS) ||
				(s == worstScore && q == worstQS && t > worst) {
				worst, worstScore, worstQS = t, s, q
			}
		}
		if cand.score > worstScore || (cand.score == worstScore && cand.qs > worstQS) {
			if err := p.unpublishTerm(ctx, st, worst); err != nil {
				return changes, err
			}
			if err := p.publishTerm(ctx, st, cand.term); err != nil {
				return changes, err
			}
			changes++
			budget--
		} else {
			// Candidates are sorted descending; nothing further can win.
			break
		}
	}

	// If learning produced fewer candidates than the iteration budget, fill
	// the remainder with the next most frequent unindexed terms — the
	// paper's initial-guess selector (§5.2) reapplied. This keeps the number
	// of indexed terms at the configured level (§6.2 fixes it at
	// F + iterations·TermsPerIteration), so a document with a thin query
	// history degrades gracefully to the static frequency scheme instead of
	// being under-indexed.
	if budget > 0 && len(st.indexed) < cap {
		for _, term := range st.doc.TopTerms(len(st.doc.TF)) {
			if budget == 0 || len(st.indexed) >= cap {
				break
			}
			if st.indexed[term] || st.banned[term] {
				continue
			}
			if err := p.publishTerm(ctx, st, term); err != nil {
				return changes, err
			}
			changes++
			budget--
		}
	}
	return changes, nil
}

func distinctTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
