package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements query expansion by local context analysis, the §7
// technique the paper singles out as suitable for P2P settings because it
// needs no global statistics: "In local context analysis, global information
// is not required … the co-occurrence of nouns in a document is analyzed.
// Queries are enriched accordingly."
//
// The distributed realization is two-phase pseudo-relevance feedback. The
// querying peer first runs the normal search, then downloads the term
// vectors of the top few results from their *owner peers* (the same peers a
// user would download the documents from in the retrieval phase, §3), scores
// co-occurring terms, appends the best ones to the query, and searches
// again.

// ExpandOptions tunes SearchExpanded.
type ExpandOptions struct {
	// FeedbackDocs is the number of top first-phase results whose term
	// vectors are analyzed. Default 5.
	FeedbackDocs int
	// ExpansionTerms is the number of co-occurring terms appended to the
	// query. Default 3.
	ExpansionTerms int
}

func (o ExpandOptions) withDefaults() ExpandOptions {
	if o.FeedbackDocs == 0 {
		o.FeedbackDocs = 5
	}
	if o.ExpansionTerms == 0 {
		o.ExpansionTerms = 3
	}
	return o
}

// docTermsReq asks a document's owner peer for its local term vector — the
// metadata an owner keeps for every shared document (§3: the owner is
// "responsible for maintaining each shared document it owns, locally
// indexing it").
type docTermsReq struct {
	Doc index.DocID
}

type docTermsResp struct {
	Found  bool
	TF     map[string]int
	Length int
}

const msgDocTerms = "sprite.doc_terms"

// handleDocTerms serves a document's term vector from the owner's local
// index. Registered in Peer.HandleMessage.
func (p *Peer) handleDocTerms(req docTermsReq) docTermsResp {
	p.mu.Lock()
	st := p.owned[req.Doc]
	p.mu.Unlock()
	if st == nil {
		return docTermsResp{}
	}
	tf := make(map[string]int, len(st.doc.TF))
	for t, f := range st.doc.TF {
		tf[t] = f
	}
	return docTermsResp{Found: true, TF: tf, Length: st.doc.Length}
}

// SearchExpanded runs a two-phase expanded search from the given peer: a
// normal first-phase search, local-context analysis over the top results'
// term vectors, then a second search with the enriched query. It returns
// the final ranked list and the expansion terms used.
func (n *Network) SearchExpanded(from simnet.Addr, terms []string, k int, opts ExpandOptions) (ir.RankedList, []string, error) {
	p, ok := n.peer(from)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown peer %q", from)
	}
	opts = opts.withDefaults()
	n.met.expansionRounds.Inc()

	first := p.searchWithOwners(terms, opts.FeedbackDocs)
	if len(first.hits) == 0 {
		return nil, nil, nil
	}
	expansion := p.localContextTerms(terms, first, opts.ExpansionTerms)
	if len(expansion) == 0 {
		return p.search(terms, k, false), nil, nil
	}
	expanded := append(append([]string(nil), terms...), expansion...)
	return p.search(expanded, k, false), expansion, nil
}

// ownedHits is a first-phase result list that retains owner addresses.
type ownedHits struct {
	hits   ir.RankedList
	owners map[index.DocID]simnet.Addr
}

// searchWithOwners is the first expansion phase: like search, but it records
// which owner peer holds each result so the term vectors can be fetched.
// It does not record the query in histories (the follow-up full search in
// the caller's hands decides that).
func (p *Peer) searchWithOwners(terms []string, k int) ownedHits {
	qtf := make(map[string]int, len(terms))
	for _, t := range terms {
		qtf[t]++
	}
	nTotal := p.net.cfg.SurrogateN
	// Per-term fetches fan out (network I/O only); scoring and owner
	// collection fold in term order below, reproducing the sequential result.
	dts := distinctTerms(terms)
	type fetchOut struct {
		resp getPostingsResp
		ok   bool
	}
	outs, _ := fanout.Map(context.Background(), p.net.exec, "expand_fetch", len(dts), func(ctx context.Context, i int) (fetchOut, error) {
		reply, _, _, err := p.node.Route(ctx, chordid.HashKey(dts[i]), simnet.Message{
			Type:    msgGetPostings,
			Payload: getPostingsReq{Term: dts[i], Query: terms},
			Size:    len(dts[i]) + sizeTerms(terms),
		}, nil, "")
		if err != nil {
			return fetchOut{}, nil
		}
		return fetchOut{resp: reply.Payload.(getPostingsResp), ok: true}, nil
	})
	acc := ir.NewAccumulator()
	owners := make(map[index.DocID]simnet.Addr)
	for i, term := range dts {
		if !outs[i].ok || outs[i].resp.IndexedDF == 0 {
			continue
		}
		resp := outs[i].resp
		wq := ir.QueryWeight(qtf[term], len(terms), nTotal, resp.IndexedDF)
		cur := resp.Postings.Cursor()
		for posting, ok := cur.Next(); ok; posting, ok = cur.Next() {
			wd := ir.Weight(posting.NormFreq(), nTotal, resp.IndexedDF)
			acc.Accumulate(posting.Doc, wq*wd, posting.DocLen)
			owners[posting.Doc] = simnet.Addr(posting.Owner)
		}
	}
	return ownedHits{hits: acc.Ranked().Top(k), owners: owners}
}

// localContextTerms fetches the feedback documents' term vectors from their
// owners and scores candidate expansion terms by similarity-weighted,
// length-normalized co-occurrence:
//
//	lca(t) = Σ_d sim(d) · tf(t, d)/|d|   over the feedback documents
//
// Query terms themselves are excluded; ties break alphabetically.
func (p *Peer) localContextTerms(queryTerms []string, first ownedHits, want int) []string {
	inQuery := make(map[string]bool, len(queryTerms))
	for _, t := range queryTerms {
		inQuery[t] = true
	}
	// Term-vector downloads from the feedback documents' owners fan out;
	// the co-occurrence scores fold in hit-rank order so the float sums match
	// the sequential loop exactly.
	type vecOut struct {
		resp docTermsResp
		ok   bool
	}
	outs, _ := fanout.Map(context.Background(), p.net.exec, "expand_vectors", len(first.hits), func(_ context.Context, i int) (vecOut, error) {
		owner, ok := first.owners[first.hits[i].Doc]
		if !ok {
			return vecOut{}, nil
		}
		reply, err := p.net.ring.Net().Call(p.Addr(), owner, simnet.Message{
			Type:    msgDocTerms,
			Payload: docTermsReq{Doc: first.hits[i].Doc},
			Size:    len(first.hits[i].Doc),
		})
		if err != nil {
			return vecOut{}, nil // owner offline: skip its evidence
		}
		return vecOut{resp: reply.Payload.(docTermsResp), ok: true}, nil
	})
	scores := make(map[string]float64)
	for i, hit := range first.hits {
		resp := outs[i].resp
		if !outs[i].ok || !resp.Found || resp.Length == 0 {
			continue
		}
		for t, f := range resp.TF {
			if inQuery[t] {
				continue
			}
			scores[t] += hit.Score * float64(f) / float64(resp.Length)
		}
	}
	type cand struct {
		term  string
		score float64
	}
	cands := make([]cand, 0, len(scores))
	for t, s := range scores {
		cands = append(cands, cand{t, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].term < cands[j].term
	})
	if want > len(cands) {
		want = len(cands)
	}
	out := make([]string, want)
	for i := 0; i < want; i++ {
		out[i] = cands[i].term
	}
	return out
}
