package core

import (
	"context"
	"fmt"
	"sort"

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
	st := p.state(req.Doc)
	if st == nil {
		return docTermsResp{}
	}
	tf := make(map[string]int, len(st.doc.TF))
	for t, f := range st.doc.TF {
		tf[t] = f
	}
	return docTermsResp{Found: true, TF: tf, Length: st.doc.Length}
}

// fetchDocTerms downloads each hit's term vector from its owner, one
// msgDocTerms per hit fanned out under the given stage name. out[i] belongs to
// hits[i]; it is not Found when the hit has no known owner, the owner is
// unreachable, or the owner no longer holds the document.
func (p *Peer) fetchDocTerms(ctx context.Context, stage string, hits ir.RankedList, owners map[index.DocID]simnet.Addr) []docTermsResp {
	out, _ := fanout.Map(ctx, p.net.exec, stage, len(hits), func(ctx context.Context, i int) (docTermsResp, error) {
		owner, ok := owners[hits[i].Doc]
		if !ok {
			return docTermsResp{}, nil
		}
		reply, _, err := p.send(ctx, dest{addr: owner}, simnet.Message{
			Type:    msgDocTerms,
			Payload: docTermsReq{Doc: hits[i].Doc},
		}, policy{})
		// An offline owner, or one answering something else, gives no evidence.
		resp, _ := reply.Payload.(docTermsResp)
		return resp, err
	})
	return out
}

// SearchExpanded runs a two-phase expanded search from the given peer: a
// first-phase ranking, local-context analysis over the top results' term
// vectors, then a second search with the enriched query. It returns the final
// ranked list and the expansion terms used. Neither phase records the query
// in histories. Error contract: an unknown from wraps ErrNoSuchPeer; terms
// lost to unreachable holders return the ranking over the rest plus a
// *PartialError (errors.Is(err, ErrPartialResults)) — the final search's, or
// the first phase's when that ranked nothing.
func (n *Network) SearchExpanded(from simnet.Addr, terms []string, k int, opts ExpandOptions) (ir.RankedList, []string, error) {
	p, ok := n.Peer(from)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, from)
	}
	opts = opts.withDefaults()
	n.met.expansionRounds.Inc()

	ctx := context.Background()
	first, failed, err := p.feedbackHits(ctx, terms, opts.FeedbackDocs)
	if err != nil {
		return nil, nil, err
	}
	if len(first.hits) == 0 {
		return nil, nil, p.partial(failed)
	}
	expansion := p.localContextTerms(ctx, terms, first, opts.ExpansionTerms)
	if len(expansion) == 0 {
		rl, err := p.searchCtx(ctx, terms, k, false, nil)
		return rl, nil, err
	}
	expanded := append(append([]string(nil), terms...), expansion...)
	rl, err := p.searchCtx(ctx, expanded, k, false, nil)
	return rl, expansion, err
}

// ownedHits is a first-phase result list that retains owner addresses.
type ownedHits struct {
	hits   ir.RankedList
	owners map[index.DocID]simnet.Addr
}

// feedbackHits is the first expansion phase: the top k documents for terms,
// fetched and ranked as searchCtx does but without recording the query (the
// follow-up search decides that), plus each hit's owner peer, read from the
// fetched postings so the term vectors can be downloaded. A document several
// lists carry takes its owner from the last of them, in query order.
func (p *Peer) feedbackHits(ctx context.Context, terms []string, k int) (ownedHits, []TermFailure, error) {
	dts := distinctTerms(terms)
	outs, failed, err := p.fetchStage(ctx, "expand_fetch", dts, terms, false, nil)
	if err != nil {
		return ownedHits{}, nil, err
	}
	hits := ir.MergeTopK(p.mergeTerms(terms, dts, outs), k)
	owners := make(map[index.DocID]simnet.Addr, len(hits))
	for _, h := range hits {
		owners[h.Doc] = ""
	}
	for _, out := range outs {
		cur := out.resp.Postings.Cursor()
		for posting, ok := cur.Next(); ok; posting, ok = cur.Next() {
			if _, hit := owners[posting.Doc]; hit {
				owners[posting.Doc] = simnet.Addr(posting.Owner)
			}
		}
	}
	return ownedHits{hits: hits, owners: owners}, failed, nil
}

// localContextTerms fetches the feedback documents' term vectors from their
// owners and scores candidate expansion terms by similarity-weighted,
// length-normalized co-occurrence:
//
//	lca(t) = Σ_d sim(d) · tf(t, d)/|d|   over the feedback documents
//
// Query terms themselves are excluded; ties break alphabetically.
func (p *Peer) localContextTerms(ctx context.Context, queryTerms []string, first ownedHits, want int) []string {
	inQuery := make(map[string]bool, len(queryTerms))
	for _, t := range queryTerms {
		inQuery[t] = true
	}
	// Term-vector downloads from the feedback documents' owners fan out;
	// the co-occurrence scores fold in hit-rank order so the float sums match
	// the sequential loop exactly.
	vecs := p.fetchDocTerms(ctx, "expand_vectors", first.hits, first.owners)
	scores := make(map[string]float64)
	for i, hit := range first.hits {
		resp := vecs[i]
		if !resp.Found || resp.Length == 0 {
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
