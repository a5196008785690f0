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
// the rank list of the periodic learning iteration (§5.3, Algorithm 1; the
// sweep that runs it is in learn.go), and query processing from the querying
// peer's side (§4).

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
	// unshared is set by unshare: a learning sweep that found the state
	// before the document left and locked it after must leave it alone, or
	// it would publish postings for a document nobody owns.
	unshared bool
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
	at, err := p.routePublish(ctx, st, term)
	if err != nil {
		return err
	}
	p.recordPublished(st, term, at)
	return nil
}

// routePublish routes st's posting for term to the term's indexing peer and
// returns the peer that accepted it, with no docState bookkeeping: it only
// reads st, so it is safe while the caller holds st.mu across a fan-out.
func (p *Peer) routePublish(ctx context.Context, st *docState, term string) (simnet.Addr, error) {
	_, owner, _, err := p.node.Route(ctx, chordid.HashKey(term), p.publishMsg(st, term), nil, "")
	if err != nil {
		return "", fmt.Errorf("core: publish %q: %w", term, err)
	}
	return owner.Addr, nil
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

// itemFor is st's (term, posting) pair for term. It only reads st, so it is
// safe while the caller holds st.mu across a fan-out.
func (p *Peer) itemFor(st *docState, term string) publishItem {
	return publishItem{Term: term, Posting: index.Posting{
		Doc:    st.doc.ID,
		Owner:  string(p.Addr()),
		Freq:   st.doc.TF[term],
		DocLen: st.doc.Length,
		Sketch: st.sketch,
	}}
}

// publishMsg builds the publication of st's posting for term alone.
func (p *Peer) publishMsg(st *docState, term string) simnet.Message {
	req := publishReq{Items: []publishItem{p.itemFor(st, term)}}
	return simnet.Message{Type: msgPublish, Payload: req, Size: req.size()}
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

// errNotOwned reports a learning request for a document this peer no longer
// owns (it raced with an unshare). LearnDocCtx returns it; a sweep over many
// documents skips such a document instead.
var errNotOwned = errors.New("document not owned by peer")

// termFetch is one term's fetched, still-compressed list and the indexing
// peer that served it; zero for a skipped term.
type termFetch struct {
	resp postingsList
	peer simnet.Addr
}

// fetchStage is §4's fetch step, run by every query path (searchCtx,
// searchSimilarCtx, SearchExpanded's first phase). With the postings cache
// enabled the distinct terms dts fan out under stage one by one through the
// cache (then query is re-recorded at the serving peer if record is set, see
// recordQueryAt), one "term" child span of span each. Otherwise they go in one
// get_postings per indexing peer (fetchBatched). The fold walks dts in order,
// so failures and counters match a sequential loop: a done ctx aborts with an
// error wrapping ctx.Err(); any other failure skips the term (§7), counted in
// termsSkipped and returned.
func (p *Peer) fetchStage(ctx context.Context, stage string, dts, query []string, record bool, span *telemetry.Span) ([]termFetch, []TermFailure, error) {
	var outs []termFetch
	var errs []error
	if p.net.caches.postings != nil {
		outs, errs = fanout.Map(ctx, p.net.exec, stage, len(dts), func(ctx context.Context, i int) (termFetch, error) {
			return fetchTerm(span, dts[i], func(tsp *telemetry.Span) (postingsList, simnet.Addr, error) {
				ent, outcome, err := p.fetchPostingsCached(ctx, dts[i], tsp)
				if err != nil {
					return postingsList{}, "", err
				}
				tsp.Annotate("postings_cache", outcome.String())
				if record {
					p.recordQueryAt(context.Background(), ent.peer, query) //nolint:errcheck // best-effort, see recordQueryAt
				}
				return ent.resp, ent.peer, nil
			})
		})
	} else {
		outs, errs = p.fetchBatched(ctx, stage, dts, query, record, span)
	}
	var failed []TermFailure
	for i, err := range errs {
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("core: fetch %q: %w", dts[i], err)
		}
		p.net.met.termsSkipped.Inc()
		failed = append(failed, TermFailure{Term: dts[i], Err: err})
	}
	return outs, failed, nil
}

// searchCtx implements §4's query processing from the querying peer, with an
// optional (possibly nil) trace span: hash each keyword, fetch postings from
// the responsible indexing peers (fetchStage), and rank with the Lee et al.
// similarity. The fetched lists stay compressed: ranking is one k-way merge
// over their cursors, terms in query order (ir.MergeTopK).
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
					return p.recordQueryAt(ctx, ent.peers[dts[i]], terms)
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

	dts := distinctTerms(terms)
	outs, failed, err := p.fetchStage(ctx, "fetch", dts, terms, record, span)
	if err != nil {
		return nil, err
	}
	rl := ir.MergeTopK(p.mergeTerms(terms, dts, outs), k)
	if rc != nil && len(failed) == 0 {
		peers := make(map[string]simnet.Addr, len(dts))
		for i, term := range dts {
			peers[term] = outs[i].peer
		}
		ent := resultEntry{rl: append(ir.RankedList(nil), rl...), peers: peers}
		rc.PutAt(rcGen, rkey, ent, resultBytes(ent))
	}
	return rl, p.partial(failed)
}

// mergeTerms is ir.MergeTopK's input over the fetched lists: one weighted
// cursor per term that matched anything, in dts (query) order.
func (p *Peer) mergeTerms(terms, dts []string, outs []termFetch) []ir.MergeTerm {
	qtf := make(map[string]int, len(terms))
	for _, t := range terms {
		qtf[t]++
	}
	n := p.net.cfg.SurrogateN
	merge := make([]ir.MergeTerm, 0, len(dts))
	for i, term := range dts {
		if df := outs[i].resp.IndexedDF; df > 0 {
			merge = append(merge, ir.MergeTerm{
				Cursor: outs[i].resp.Postings.Cursor(),
				WQ:     ir.QueryWeight(qtf[term], len(terms), n, df),
				N:      n,
				DF:     df,
			})
		}
	}
	return merge
}

// partial is a query's error for the terms it skipped: nil or a counted
// *PartialError.
func (p *Peer) partial(failed []TermFailure) error {
	if len(failed) == 0 {
		return nil
	}
	p.net.met.partials.Inc()
	return &PartialError{Failures: failed}
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

// applyRankList is Algorithm 1's step 3 over st's rank list: publish up to
// TermsPerIteration new high-Score terms; once the MaxIndexTerms cap is
// reached, replace the lowest-scoring indexed terms instead (Fig. 2(a)'s
// insertion + replacement behaviour). It returns the number of index changes
// (publishes + replacements). Replaced terms are withdrawn here; each new term
// goes to publish, which must add it to st.indexed before it returns nil —
// the learning sweep defers the message and only marks the term.
func (p *Peer) applyRankList(ctx context.Context, st *docState, publish func(term string) error) (int, error) {
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
			if err := publish(cand.term); err != nil {
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
			if err := publish(cand.term); err != nil {
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
			if err := publish(term); err != nil {
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
