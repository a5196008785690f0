package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements the vector-similarity query path over the SPRITE
// overlay. A similarity query is query-by-document: "find the shared
// documents most similar to document X". Instead of a second routing
// structure for vectors, the path reuses the keyword overlay twice over:
//
//  1. Candidate retrieval routes through X's learned representative terms —
//     its current global index terms (the ones SPRITE's learning selected as
//     most descriptive), the most frequent first, capped at
//     Config.Sketch.RouteTerms. Each routing term costs the same Chord
//     lookup + postings fetch a keyword query pays, so the message count is
//     O(RouteTerms · log N) regardless of corpus size.
//  2. Re-ranking scores every candidate posting by the cosine of its carried
//     sketch against X's sketch, streamed through ir.SketchRanker straight
//     off the compressed blocks.
//
// The experiment's flooding baseline is not a protocol: it is every owner's
// document sketches ranked centrally, computed by internal/eval from
// Network.DocSketch and Network.Owner.

// ErrSketchDisabled reports a similarity query against a network whose
// Config.Sketch is disabled.
var ErrSketchDisabled = errors.New("core: sketching disabled (enable Config.Sketch)")

// docSketchFor serializes doc's sketch under the network configuration (""
// when sketching is disabled).
func (n *Network) docSketchFor(doc *corpus.Document) string {
	if n.sketcher == nil {
		return ""
	}
	return string(n.sketcher.SketchBytes(doc.TF))
}

// DocSketch returns the serialized sketch of a shared document. It reports
// false for unshared documents; a shared document under a sketch-disabled
// configuration returns "". Experiments and invariant oracles use it to
// recompute expected rankings.
func (n *Network) DocSketch(doc index.DocID) (string, bool) {
	if _, st := n.ownedDoc(doc); st != nil {
		return st.sketch, true
	}
	return "", false
}

// routeTermsLocked selects the query document's routing terms: its learned
// global index terms ranked by document frequency (ties by term), capped at
// k. st.mu must be held.
func routeTermsLocked(st *docState, k int) []string {
	terms := st.indexedTerms() // sorted, so equal frequencies stay in term order
	slices.SortStableFunc(terms, func(a, b string) int { return cmp.Compare(st.doc.TF[b], st.doc.TF[a]) })
	if k > 0 && len(terms) > k {
		terms = terms[:k]
	}
	return terms
}

// SimilarRouteTerms returns the routing terms a similarity query for doc
// would fetch candidates through right now — the document's learned
// representative terms, most frequent first. Tests and experiments use it to
// reason about coverage; it changes as learning re-tunes the index.
func (n *Network) SimilarRouteTerms(doc index.DocID) ([]string, error) {
	_, route, _, err := n.similarQuery(doc)
	return route, err
}

// similarQuery resolves the query document's sketch, routing terms, and term
// vector from its owner's state. The TF copy feeds the optional exact
// re-ranking stage (Config.Sketch.Refine).
func (n *Network) similarQuery(doc index.DocID) (qsketch string, route []string, qtf map[string]int, err error) {
	if n.sketcher == nil {
		return "", nil, nil, ErrSketchDisabled
	}
	_, st := n.ownedDoc(doc)
	if st == nil {
		return "", nil, nil, fmt.Errorf("%w: %q", ErrNoSuchDoc, doc)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	qtf = make(map[string]int, len(st.doc.TF))
	for t, f := range st.doc.TF {
		qtf[t] = f
	}
	return st.sketch, routeTermsLocked(st, n.cfg.Sketch.RouteTerms), qtf, nil
}

// SearchSimilarCtx finds the k shared documents most similar to doc, ranked
// by sketch cosine (descending; ties ascending by doc ID). The query document
// itself is excluded. The routing terms are recorded as a query in the
// contacted indexing peers' histories, so similarity traffic feeds learning
// like keyword traffic does. Error contract: a done context aborts the
// query; routing terms lost to unreachable holders return the ranking over
// the remaining candidates plus a *PartialError. An unshared doc wraps
// ErrNoSuchDoc; a sketch-disabled network returns ErrSketchDisabled.
func (n *Network) SearchSimilarCtx(ctx context.Context, from simnet.Addr, doc index.DocID, k int) (ir.RankedList, error) {
	return n.similarCtx(ctx, from, doc, k, true)
}

// ProbeSimilarCtx is SearchSimilarCtx without the history side effect, for
// measurement runs that must not leak probe traffic into learning state.
func (n *Network) ProbeSimilarCtx(ctx context.Context, from simnet.Addr, doc index.DocID, k int) (ir.RankedList, error) {
	return n.similarCtx(ctx, from, doc, k, false)
}

// similarCtx executes the routed similarity query from the querying peer:
// resolve the query document's sketch and routing terms, fetch each routing
// term's postings through the query path's fetch stage (fetchStage), then
// fold the candidate streams in routing-term order into a SketchRanker. The
// fold order plus the ranker's first-wins dedup make the ranking a pure
// function of the fetched postings, so it is bit-identical across
// Parallelism settings, cache on/off, and clock sources.
//
// With Config.Sketch.Refine > 0 the sketch ranking becomes a first-stage
// filter: the top Refine candidates have their full term vectors fetched from
// their owners (one msgDocTerms each) and are re-scored by exact weighted
// cosine before the final top-k cut. An owner fetch that fails leaves that
// candidate on its sketch score — degraded, never lost.
//
// The result cache is deliberately not consulted: a similarity result is
// already one bounded ranked list per query document, and keeping the path
// result-cache-free keeps its message accounting legible in experiments.
func (n *Network) similarCtx(ctx context.Context, from simnet.Addr, qdoc index.DocID, k int, record bool) (ir.RankedList, error) {
	qsketch, route, qtf, err := n.similarQuery(qdoc)
	if err != nil {
		return nil, err
	}
	p, ok := n.Peer(from)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, from)
	}
	n.met.simSearches.Inc()
	if n.cfg.Telemetry != nil {
		start := n.clock.Now()
		defer func() {
			n.met.queryLatency.Observe(n.clock.Now().Sub(start).Microseconds())
		}()
	}

	outs, failed, err := p.fetchStage(ctx, "sim_fetch", route, route, record, nil)
	if err != nil {
		return nil, err
	}

	// With refinement the ranker keeps the wider candidate pool; without it
	// the sketch cosine is the final score and k suffices.
	refine := n.cfg.Sketch.Refine
	pool := k
	if refine > pool {
		pool = refine
	}
	r := ir.NewSketchRanker([]byte(qsketch), pool)
	var owners map[index.DocID]simnet.Addr
	if refine > 0 {
		owners = make(map[index.DocID]simnet.Addr)
	}
	for _, out := range outs {
		cur := out.resp.Postings.Cursor()
		if owners != nil {
			for {
				pst, ok := cur.Next()
				if !ok {
					break
				}
				if pst.Doc == qdoc {
					continue
				}
				if _, seen := owners[pst.Doc]; !seen {
					owners[pst.Doc] = simnet.Addr(pst.Owner)
				}
				r.Offer([]byte(pst.Doc), cur.SketchBytes())
			}
			continue
		}
		for {
			docBytes, _, _, ok := cur.NextBytes()
			if !ok {
				break
			}
			if string(docBytes) == string(qdoc) {
				continue
			}
			r.Offer(docBytes, cur.SketchBytes())
		}
	}
	n.met.simCandidates.Add(int64(r.Candidates()))
	rl := r.Ranked()
	if refine > 0 {
		rl = p.refineSimilar(ctx, rl, qtf, owners, k)
	}
	return rl, p.partial(failed)
}

// refineSimilar re-scores the sketch-ranked candidates by exact weighted
// cosine: each candidate's term vector is fetched from its owner (the Owner
// address its posting carried) and folded against the query vector with
// 1+log₁₀(tf) weights. Candidates whose owner cannot be reached — or whose
// owner no longer holds the document — keep their sketch score, so the refined
// ranking degrades toward the first-stage one rather than dropping hits. The
// final cut is top-k under the usual (score desc, doc asc) order.
func (p *Peer) refineSimilar(ctx context.Context, cands ir.RankedList, qtf map[string]int, owners map[index.DocID]simnet.Addr, k int) ir.RankedList {
	if len(cands) == 0 {
		return cands
	}
	qw, qn := cosineWeights(qtf)
	vecs := p.fetchDocTerms(ctx, "sim_refine", cands, owners)
	out := make(ir.RankedList, len(cands))
	copy(out, cands)
	for i := range out {
		if !vecs[i].Found {
			continue
		}
		out[i].Score = exactCosine(qw, qn, vecs[i].TF)
	}
	out.Sort()
	return out.Top(k)
}

// cosineWeights builds the 1+log₁₀(tf) weight vector and its L2 norm. Terms
// fold in sorted order so the norm's float accumulation — like every other
// fold on the query path — is a pure function of the map's contents.
func cosineWeights(tf map[string]int) (map[string]float64, float64) {
	terms := make([]string, 0, len(tf))
	for t, f := range tf {
		if f > 0 {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	w := make(map[string]float64, len(terms))
	n2 := 0.0
	for _, t := range terms {
		v := 1 + math.Log10(float64(tf[t]))
		w[t] = v
		n2 += v * v
	}
	return w, math.Sqrt(n2)
}

// exactCosine scores a candidate term vector against precomputed query
// weights, folding the candidate's terms in sorted order for bit-identical
// results across runs.
func exactCosine(qw map[string]float64, qn float64, tf map[string]int) float64 {
	terms := make([]string, 0, len(tf))
	for t, f := range tf {
		if f > 0 {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	dot, n2 := 0.0, 0.0
	for _, t := range terms {
		v := 1 + math.Log10(float64(tf[t]))
		n2 += v * v
		if u, ok := qw[t]; ok {
			dot += u * v
		}
	}
	if qn == 0 || n2 == 0 {
		return 0
	}
	return dot / (qn * math.Sqrt(n2))
}
