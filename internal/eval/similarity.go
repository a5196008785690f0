package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/deploy"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/sketch"
)

// The similarity-retrieval benchmark: query-by-document over the SPRITE
// overlay, term-routed sketch re-ranking against a flooding baseline, both
// judged against an exact centralized oracle.
//
//   - Oracle: float64 cosine over the full 1+log₁₀(tf) weighted term vectors,
//     computed centrally from the corpus — no sketching, no routing, no
//     network. Its top-k per query document is the ground truth.
//   - Routed arm: core.Network.ProbeSimilarCtx — candidates fetched through
//     the query document's learned representative terms (O(RouteTerms ·
//     lookup) DHT messages per query), filtered by int8-sketch cosine, and
//     the top Refine survivors re-scored exactly via one term-vector fetch
//     each.
//   - Flooding arm: every owner's document sketches, ranked centrally by
//     sketch cosine (O(peers) messages per query). It is computed here from
//     the owners' state, not sent (flood below). Exhaustive over candidates,
//     so it isolates what routing costs in recall from what sketching costs.
//
// Recall@k is |arm's top-k ∩ oracle top-k| / k, averaged over the sampled
// query documents. The routed arm's messages and bytes come from the
// simulated transport's accounting, the flood's from its cost model; both
// are divided by the query count. The headline the committed
// BENCH_similarity.json pins: on the 10k-document tier the routed arm keeps
// recall@10 ≥ 0.9 while spending ≥5× fewer messages per query than flooding.

// similarityDims is the sketch width used by the benchmark. The synthetic
// topic corpora pack their oracle top-10 into score gaps of a few hundredths,
// tighter than the int8 quantization error at small widths, and the 10k-doc
// tier crowds ~800 documents per topic into that margin; sketch.MaxDims keeps
// enough of the oracle's top-10 inside the top-refine sketch candidates for
// the exact re-ranking stage to order. Width costs bytes, never messages.
const similarityDims = sketch.MaxDims

// similarityRouteTerms is the routing fan-out of the routed arm.
const similarityRouteTerms = 6

// similarityRefine is the exact re-ranking depth: the top 64 sketch
// candidates get their term vectors fetched (64 messages) and re-scored by
// exact cosine — still far below the flooding arm's one message per peer.
const similarityRefine = 64

// SimilarityTier is the measurement at one corpus size.
type SimilarityTier struct {
	Docs    int
	Peers   int
	Queries int

	// Per-query traffic, from the simulated transport.
	RoutedMsgs  float64
	FloodMsgs   float64
	RoutedBytes float64
	FloodBytes  float64
	// MsgAdvantage is FloodMsgs / RoutedMsgs — the headline ratio.
	MsgAdvantage float64

	// Mean recall@TopK against the exact oracle.
	RoutedRecall float64
	FloodRecall  float64

	WallMS int64
}

// SimilarityResult is the sweep across corpus sizes.
type SimilarityResult struct {
	Tiers      []SimilarityTier
	Dims       int
	RouteTerms int
	Refine     int
	TopK       int
	Seed       int64
}

// RunSimilarity runs the sweep. Defaults: tiers {2k, 10k} documents, 512
// peers, 100 sampled query documents per tier, top-10.
func RunSimilarity(cfg Config, tiers []int, peers, queryDocs int) (*SimilarityResult, error) {
	cfg = cfg.fillDefaults()
	if len(tiers) == 0 {
		tiers = []int{2000, 10000}
	}
	if peers <= 0 {
		peers = 512
	}
	if queryDocs <= 0 {
		queryDocs = 100
	}
	res := &SimilarityResult{
		Dims:       similarityDims,
		RouteTerms: similarityRouteTerms,
		Refine:     similarityRefine,
		TopK:       10,
		Seed:       cfg.Seed,
	}
	for _, docs := range tiers {
		tier, err := runSimilarityTier(cfg, docs, peers, queryDocs, res.TopK)
		if err != nil {
			return nil, fmt.Errorf("eval: similarity tier %d: %w", docs, err)
		}
		res.Tiers = append(res.Tiers, *tier)
	}
	return res, nil
}

func runSimilarityTier(cfg Config, docs, peers, queryDocs, topK int) (*SimilarityTier, error) {
	start := time.Now()
	cc := cfg.Corpus
	cc.NumDocs = docs
	// Topic count scales with the corpus (≈12 per 10k docs, min 6) so
	// neighborhood structure stays comparable across tiers.
	cc.NumTopics = max(6, 12*docs/10000)
	col, err := corpus.Synthesize(cc)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}

	coreCfg := cfg.Core
	coreCfg.Sketch = sketch.Config{
		Enabled:    true,
		Dims:       similarityDims,
		RouteTerms: similarityRouteTerms,
		Seed:       uint64(cfg.Seed),
		Refine:     similarityRefine,
	}
	dep, err := deploy.New(deploy.Spec{Peers: peers, Prefix: "peer", Seed: cfg.Seed + 1, Core: coreCfg})
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	n, addrs := dep.Net, dep.Addrs
	for i, doc := range col.Corpus.Docs() {
		if err := n.ShareCtx(context.Background(), addrs[i%len(addrs)], doc); err != nil {
			return nil, fmt.Errorf("share %s: %w", doc.ID, err)
		}
	}

	// Sample the query documents.
	all := col.Corpus.Docs()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(docs)))
	perm := rng.Perm(len(all))
	if queryDocs > len(all) {
		queryDocs = len(all)
	}
	queries := make([]*corpus.Document, queryDocs)
	for i := range queries {
		queries[i] = all[perm[i]]
	}

	oracle := newCosineOracle(all)
	tier := &SimilarityTier{Docs: docs, Peers: peers, Queries: queryDocs}

	qn := float64(len(queries))
	// Routed arm: real queries, metered by the simulated transport.
	dep.Sim.ResetStats()
	recall := 0.0
	for i, q := range queries {
		rl, err := n.ProbeSimilarCtx(context.Background(), addrs[i%len(addrs)], q.ID, topK)
		if err != nil && !errors.Is(err, core.ErrPartialResults) {
			return nil, fmt.Errorf("routed arm: %w", err)
		}
		recall += overlap(rl.Docs(), oracle.topK(q, topK))
	}
	st := dep.Sim.Stats()
	tier.RoutedMsgs = float64(st.Calls) / qn
	tier.RoutedBytes = float64(st.Bytes) / qn
	tier.RoutedRecall = recall / qn

	// Flooding arm: computed from the owners' state, nothing sent.
	f := newFlood(n)
	var msgs, bytes int
	recall = 0
	for i, q := range queries {
		rl, m, b := f.query(addrs[i%len(addrs)], q.ID, topK)
		msgs += m
		bytes += b
		recall += overlap(rl.Docs(), oracle.topK(q, topK))
	}
	tier.FloodMsgs = float64(msgs) / qn
	tier.FloodBytes = float64(bytes) / qn
	tier.FloodRecall = recall / qn
	if tier.RoutedMsgs > 0 {
		tier.MsgAdvantage = tier.FloodMsgs / tier.RoutedMsgs
	}
	tier.WallMS = time.Since(start).Milliseconds()
	return tier, nil
}

// flood is the flooding baseline, computed rather than sent. Its ranking and
// its bill are fixed by which peer owns which document: the issuer asks every
// other peer for the sketches of the documents it owns and ranks them all,
// its own documents included, against the query document's sketch. Each
// remote peer costs one message of 1 byte and a reply of 1 byte plus, per
// owned document, its ID and sketch with a length byte each; a call to the
// issuer itself is free. That is the cost model the simulated transport
// applied when the flood was a core protocol, so the flood columns of
// BENCH_similarity.json compare with every earlier run.
type flood struct {
	docs     []index.DocID
	sketches map[index.DocID][]byte
	// reply is each peer's reply size; bytes is the sum over all peers of
	// request and reply.
	reply map[simnet.Addr]int
	bytes int
}

func newFlood(n *core.Network) *flood {
	peers := n.Peers()
	f := &flood{
		docs:     n.Documents(),
		sketches: make(map[index.DocID][]byte),
		reply:    make(map[simnet.Addr]int, len(peers)),
	}
	for _, p := range peers {
		f.reply[p.Addr()] = 1
	}
	for _, d := range f.docs {
		sk, _ := n.DocSketch(d)
		owner, _ := n.Owner(d)
		f.sketches[d] = []byte(sk)
		f.reply[owner.Addr()] += len(d) + len(sk) + 2
	}
	for _, r := range f.reply {
		f.bytes += 1 + r
	}
	return f
}

// query returns the flood's top-k for qdoc issued at from, and the messages
// and bytes it costs.
func (f *flood) query(from simnet.Addr, qdoc index.DocID, k int) (rl ir.RankedList, msgs, bytes int) {
	r := ir.NewSketchRanker(f.sketches[qdoc], k)
	for _, d := range f.docs {
		if d != qdoc {
			r.Offer([]byte(d), f.sketches[d])
		}
	}
	return r.Ranked(), len(f.reply) - 1, f.bytes - (1 + f.reply[from])
}

// overlap is |got ∩ want| / |want| (recall of the oracle's set).
func overlap(got, want []index.DocID) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[index.DocID]struct{}, len(want))
	for _, d := range want {
		in[d] = struct{}{}
	}
	hit := 0
	for _, d := range got {
		if _, ok := in[d]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// cosineOracle scores exact float64 cosine over 1+log₁₀(tf) weighted term
// vectors — the ground truth the sketches approximate.
type cosineOracle struct {
	docs    []*corpus.Document
	weights []map[string]float64
	norms   []float64
	pos     map[index.DocID]int
}

func newCosineOracle(docs []*corpus.Document) *cosineOracle {
	o := &cosineOracle{
		docs:    docs,
		weights: make([]map[string]float64, len(docs)),
		norms:   make([]float64, len(docs)),
		pos:     make(map[index.DocID]int, len(docs)),
	}
	for i, d := range docs {
		w := make(map[string]float64, len(d.TF))
		n2 := 0.0
		for t, f := range d.TF {
			v := 1 + math.Log10(float64(f))
			w[t] = v
			n2 += v * v
		}
		o.weights[i] = w
		o.norms[i] = math.Sqrt(n2)
		o.pos[d.ID] = i
	}
	return o
}

// topK returns the query document's exact top-k neighbors (itself excluded),
// ties broken ascending by doc ID like the system under test.
func (o *cosineOracle) topK(q *corpus.Document, k int) []index.DocID {
	qi := o.pos[q.ID]
	qw, qn := o.weights[qi], o.norms[qi]
	type scored struct {
		doc index.DocID
		s   float64
	}
	all := make([]scored, 0, len(o.docs)-1)
	for i, d := range o.docs {
		if i == qi {
			continue
		}
		dot := 0.0
		dw := o.weights[i]
		if len(qw) <= len(dw) {
			for t, v := range qw {
				dot += v * dw[t]
			}
		} else {
			for t, v := range dw {
				dot += v * qw[t]
			}
		}
		s := 0.0
		if qn > 0 && o.norms[i] > 0 {
			s = dot / (qn * o.norms[i])
		}
		all = append(all, scored{d.ID, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].doc < all[j].doc
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]index.DocID, k)
	for i := range out {
		out[i] = all[i].doc
	}
	return out
}

// Report renders one row per corpus tier; msg_advantage is flood_msgs over
// routed_msgs, and wall_ms the tier's real time.
func (r *SimilarityResult) Report() *Report {
	rep := &Report{
		Title: "Similarity retrieval: term-routed sketch filter + exact refine vs flooding",
		Columns: []Column{
			{"docs", 0}, {"peers", 0}, {"queries", 0}, {"dims", 0}, {"route_terms", 0}, {"refine", 0}, {"topk", 0},
			{"routed_msgs", 2}, {"flood_msgs", 2}, {"routed_bytes", 2}, {"flood_bytes", 2},
			{"msg_advantage", 2}, {"routed_recall", 4}, {"flood_recall", 4}, {"wall_ms", 0},
		},
	}
	for _, t := range r.Tiers {
		rep.Rows = append(rep.Rows, []any{
			t.Docs, t.Peers, t.Queries, r.Dims, r.RouteTerms, r.Refine, r.TopK,
			t.RoutedMsgs, t.FloodMsgs, t.RoutedBytes, t.FloodBytes,
			t.MsgAdvantage, t.RoutedRecall, t.FloodRecall, t.WallMS,
		})
	}
	return rep
}
