package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/corpus"
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
	// mu serializes learning, stale flushes, unshare, and term inspection
	// for this document. It is never held across another peer's handler that
	// takes it back (handlers only touch indexingState), so lock ordering
	// is trivially acyclic.
	mu  sync.Mutex
	doc *corpus.Document
	// sketch is the document's serialized feature sketch, computed once at
	// share time ("" when sketching is disabled) and immutable afterwards —
	// readers outside mu (publish fan-outs, DocSketch) rely on that.
	sketch string
	// terms holds a record per index term and per document term a seen
	// query named; nIndexed counts the index terms, for the MaxIndexTerms
	// cap. A write that may empty a record or flip its flag goes through set.
	terms    map[string]ownedTerm
	nIndexed int
	// banned holds terms retired by the §7 hot-term advisory; they are never
	// re-selected for this document ("The document owner peers can then
	// discard the term and pick an analogously important term to index").
	banned map[string]bool
	// stale records peers that may still hold a withdrawn copy of a term's
	// posting: a re-anchor whose withdrawal at the old indexing peer failed
	// leaves the address here, and later stale flushes and unshares retry
	// until the copy is confirmed gone (or the holder leaves for good).
	stale map[string][]simnet.Addr
	// unshared is set by unshare: a learning sweep that found the state
	// before the document left and locked it after must leave it alone, or
	// it would publish postings for a document nobody owns.
	unshared bool
}

// ownedTerm is the owner's record of a term: its statistics ("At every owner
// peer, for each term in a document, two values are stored: qScore and QF",
// §5.1), whether it is an index term, its holder of record — the peer that
// last accepted its posting, which polls and withdrawals address — and the
// poll watermark that pulls only newer queries (the incremental set Q′).
type ownedTerm struct {
	at      simnet.Addr // "" none
	mark    pollMark    // its At may differ from at: a poll routed past the holder
	maxQS   float64     // the largest qScore of a query naming the term
	qf      int32       // QF(t), the queries naming it
	indexed bool
}

// pollMark is a poll watermark with the peer it belongs to: Since is a
// position in At's private sequence counter (indexingState.seq) and means
// nothing at any other peer.
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

// set stores ot as term's record, dropping one that holds nothing, and keeps
// nIndexed.
func (st *docState) set(term string, ot ownedTerm) {
	switch old := st.terms[term]; {
	case ot.indexed && !old.indexed:
		st.nIndexed++
	case old.indexed && !ot.indexed:
		st.nIndexed--
	}
	if ot == (ownedTerm{}) {
		delete(st.terms, term)
	} else {
		st.terms[term] = ot
	}
}

// index flags term as an index term, or takes the flag off.
func (st *docState) index(term string, on bool) {
	ot := st.terms[term]
	ot.indexed = on
	st.set(term, ot)
}

// indexedTerms returns the document's global index terms, sorted.
func (st *docState) indexedTerms() []string {
	terms := make([]string, 0, st.nIndexed)
	for t, ot := range st.terms {
		if ot.indexed {
			terms = append(terms, t)
		}
	}
	slices.Sort(terms)
	return terms
}

// score computes the learning rank score under the configured variant. The
// paper's combined formula is Score(t, D) = qScore · log₁₀(QF) (§5.3; the
// worked example in Fig. 2(b) uses base-10 logarithms: 0.75·log 20 = 0.975).
func (ot ownedTerm) score(v ScoreVariant) float64 {
	if ot.qf <= 0 {
		return 0
	}
	switch v {
	case ScoreQScoreOnly:
		return ot.maxQS
	case ScoreQFOnly:
		return float64(ot.qf)
	case ScoreQScoreTimesQF:
		return ot.maxQS * float64(ot.qf)
	default:
		return ot.maxQS * math.Log10(float64(ot.qf))
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
// first global index terms. They go as the publish phase of a one-document
// learning sweep: one sprite.publish per indexing peer the owner's node names.
func (p *Peer) share(ctx context.Context, doc *corpus.Document) error {
	st := &docState{doc: doc, sketch: p.net.docSketchFor(doc), terms: make(map[string]ownedTerm)}
	d := &sweepDoc{p: p, id: doc.ID, st: st, publish: doc.TopTerms(p.net.cfg.InitialTerms)}
	d.added = len(d.publish)
	p.net.publishPhase(ctx, []*sweepDoc{d})
	if d.err != nil {
		// Roll back the terms published: a failed share must not leave
		// entries behind for a document the network will never list as
		// shared. Best-effort, on a fresh context — the caller's may already
		// be done, and an unreachable indexing peer keeps its copy only until
		// it dies or is recycled.
		for _, t := range st.indexedTerms() {
			d.retire(t, "")
		}
		p.net.withdrawPhase(context.Background(), []*sweepDoc{d})
		return d.err
	}
	p.mu.Lock()
	p.owned[doc.ID] = st
	p.mu.Unlock()
	return nil
}

// publishTerm routes st's posting for term to the term's indexing peer — the
// publish protocol's one-item form — and records it in the document's indexed
// set.
func (p *Peer) publishTerm(ctx context.Context, st *docState, term string) error {
	d := &sweepDoc{p: p, id: st.doc.ID, st: st, publish: []string{term}}
	at, _, err := p.net.publishes(nil).route(ctx, learnItem{d, 0}, dest{}, nil)
	if err != nil {
		return fmt.Errorf("core: publish %q: %w", term, err)
	}
	p.recordPublished(st, term, at)
	return nil
}

// recordPublished notes that target accepted term's posting.
func (p *Peer) recordPublished(st *docState, term string, target simnet.Addr) {
	p.net.met.termsPublished.Inc()
	ot := st.terms[term]
	ot.indexed, ot.at = true, target
	st.set(term, ot)
}

// forgetTerm drops term from st's index bookkeeping, keeping its learning
// statistics, and sends nothing.
func forgetTerm(st *docState, term string) {
	ot := st.terms[term]
	ot.indexed, ot.at, ot.mark = false, "", pollMark{}
	st.set(term, ot)
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

// errNotOwned reports a learning request for a document this peer no longer
// owns (it raced with an unshare). LearnDocCtx returns it; a sweep over many
// documents skips such a document instead.
var errNotOwned = errors.New("document not owned by peer")

// termFetch is one term's fetched, still-compressed list and the indexing
// peer that served it; zero for a skipped term. The postings cache holds
// them too, its peer the one a hit re-records the query at.
type termFetch struct {
	resp postingsList
	peer simnet.Addr
}

// fetchStage is §4's fetch step, run by every query path (searchCtx,
// Network.similarCtx, SearchExpanded's first phase): it returns the lists of
// the distinct terms dts of query, in dts order. A term the postings cache
// holds is served from it and, if record is set, the query is recorded at
// the peer that served it (recordAt). Every other term — all of them with the
// cache off — goes in one exchange of the postings protocol (fetching), and
// its answer is cached unless the term was invalidated since before the send
// (cache.Mark). The fold walks dts in order, so failures and counters match a
// sequential loop: a done ctx aborts with an error wrapping ctx.Err(); any
// other failure skips the term (§7), counted in termsSkipped and returned.
func (p *Peer) fetchStage(ctx context.Context, stage string, dts, query []string, record bool, span *telemetry.Span) ([]termFetch, []TermFailure, error) {
	pc := p.net.caches.postings
	var (
		outs    []termFetch   // by position in dts; made at the first hit
		hits    []simnet.Addr // the peers that served the hits
		miss    []int         // the positions to fetch; made at the first miss
		markBuf [8]cache.Mark // their marks, on the stack for most queries
	)
	marks := markBuf[:0]
	for i, term := range dts {
		if ent, ok := pc.Get(term); ok {
			if outs == nil {
				outs, hits = make([]termFetch, len(dts)), make([]simnet.Addr, 0, len(dts)-i)
			}
			outs[i], hits = ent, append(hits, ent.peer)
			span.Annotate("postings_cache_hit", term)
			continue
		}
		if miss == nil {
			miss = make([]int, 0, len(dts)-i)
		}
		miss, marks = append(miss, i), append(marks, pc.Mark(term))
	}
	if record && len(hits) > 0 {
		p.recordAt(ctx, hits, query)
	}
	if len(miss) == 0 {
		return outs, nil, nil
	}
	got, errs := exchange(ctx, miss, p.fetching(stage, dts, query, record, span))
	if outs == nil {
		outs = got // every term missed: miss is 0, 1, …
	}
	var failed []TermFailure
	for m, i := range miss {
		if err := errs[m]; err != nil {
			if ctx.Err() != nil {
				return nil, nil, fmt.Errorf("core: fetch %q: %w", dts[i], err)
			}
			p.net.met.termsSkipped.Inc()
			failed = append(failed, TermFailure{Term: dts[i], Err: err})
			continue
		}
		outs[i] = got[m]
		pc.PutAt(marks[m], dts[i], got[m], postingsBytes(got[m]))
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
// the query at each term's indexing peer (see recordAt). A result is stored
// only if no invalidation happened while the search ran (cache.Mark), so a
// concurrent invalidation (peer failure, index mutation) can never be undone
// by a search that read the pre-invalidation state.
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
				// at that term's indexing peer; replay the same recordings so
				// query histories (and hence learning) don't diverge.
				p.recordAt(ctx, ent.peers, terms)
			}
			// A copy, so the caller cannot reach the cached list — and never
			// nil, so a query that matched nothing reads the same as uncached.
			return append(ir.RankedList{}, ent.rl...), nil
		}
	}
	// Marked before any remote read: the result is stored only if no
	// invalidation happened since (see cache.PutAt).
	mark := rc.Mark(rkey)

	dts := distinctTerms(terms)
	outs, failed, err := p.fetchStage(ctx, "fetch", dts, terms, record, span)
	if err != nil {
		return nil, err
	}
	rl := ir.MergeTopK(p.mergeTerms(terms, dts, outs), k)
	if rc != nil && len(failed) == 0 {
		peers := make([]simnet.Addr, len(dts))
		for i := range dts {
			peers[i] = outs[i].peer
		}
		ent := resultEntry{rl: append(ir.RankedList(nil), rl...), peers: peers}
		rc.PutAt(mark, rkey, ent, resultBytes(ent))
	}
	return rl, p.partial(failed)
}

// mergeTerms is ir.MergeTopK's input over the fetched lists: one weighted
// list per term that matched anything, in dts (query) order.
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
				List: outs[i].resp.Postings,
				WQ:   ir.QueryWeight(qtf[term], len(terms), n, df),
				N:    n,
				DF:   df,
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
	var rl []rankedTerm // made at the first learned term
	for t, ot := range st.terms {
		if ot.qf == 0 {
			continue
		}
		if rl == nil {
			rl = make([]rankedTerm, 0, len(st.terms))
		}
		rl = append(rl, rankedTerm{term: t, score: ot.score(variant), qs: ot.maxQS, tf: st.doc.TF[t]})
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

// applyRankList is Algorithm 1's step 3 over the document's rank list:
// publish up to TermsPerIteration new high-Score terms; once the MaxIndexTerms
// cap is reached, replace the lowest-scoring indexed terms instead (Fig.
// 2(a)'s insertion + replacement behaviour). It only decides, counting each
// publish and replacement in d.changes.
func (d *sweepDoc) applyRankList() {
	st, cfg := d.st, d.p.net.cfg
	rl := d.p.rankList(st)
	budget := cfg.TermsPerIteration
	cap := cfg.MaxIndexTerms

	// indexedScore returns the replacement-priority score of a currently
	// indexed term: learned terms use Score; never-queried terms (initial
	// frequency picks the learner knows nothing about) rank below everything
	// and are the first to be replaced — cf. Fig. 1, where frequent-but-
	// unqueried term c is not worth indexing.
	indexedScore := func(ot ownedTerm) (float64, float64) {
		if ot.qf > 0 {
			return ot.score(cfg.Score), ot.maxQS
		}
		return -1, -1
	}
	add := func(term string) {
		st.index(term, true)
		d.publish = append(d.publish, term)
		d.changes++
		budget--
	}

	for _, cand := range rl {
		if budget == 0 {
			break
		}
		if st.terms[cand.term].indexed || st.banned[cand.term] {
			continue
		}
		if st.nIndexed < cap {
			add(cand.term)
			continue
		}
		// At the cap: find the weakest indexed term and replace it if the
		// candidate ranks strictly higher.
		worst, worstScore, worstQS := "", math.Inf(1), math.Inf(1)
		for t, ot := range st.terms {
			if !ot.indexed {
				continue
			}
			s, q := indexedScore(ot)
			if s < worstScore || (s == worstScore && q < worstQS) ||
				(s == worstScore && q == worstQS && t > worst) {
				worst, worstScore, worstQS = t, s, q
			}
		}
		if cand.score > worstScore || (cand.score == worstScore && cand.qs > worstQS) {
			d.retire(worst, cand.term)
			add(cand.term)
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
	if budget > 0 && st.nIndexed < cap {
		for _, term := range st.doc.TopTerms(len(st.doc.TF)) {
			if budget == 0 || st.nIndexed >= cap {
				break
			}
			if !st.terms[term].indexed && !st.banned[term] {
				add(term)
			}
		}
	}
	d.added = len(d.publish)
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
