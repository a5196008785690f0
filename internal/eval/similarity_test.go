package eval

import (
	"context"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/sketch"
)

// TestRunSimilaritySmoke exercises the similarity benchmark end to end at
// unit-test size and pins its contract: both arms answer every query, the
// flooding arm's messages, bytes and recall equal the readings of the
// network protocol it once was, and the refined routed arm's recall against
// the exact oracle is not below the flood's.
func TestRunSimilaritySmoke(t *testing.T) {
	cfg := tiny()
	res, err := RunSimilarity(cfg, []int{300}, 32, 10)
	if err != nil {
		t.Fatalf("RunSimilarity: %v", err)
	}
	if len(res.Tiers) != 1 {
		t.Fatalf("tier count = %d, want 1", len(res.Tiers))
	}
	tier := res.Tiers[0]
	if tier.Docs != 300 || tier.Peers != 32 || tier.Queries != 10 {
		t.Fatalf("tier shape wrong: %+v", tier)
	}
	// The flood arm's bill and recall, pinned exactly: one sketch scan per
	// remote peer (the issuer's self-scan is free), each reply carrying its
	// peer's owned documents and sketches.
	const (
		wantFloodMsgs   = 31
		wantFloodBytes  = 300792
		wantFloodRecall = 0.74
	)
	if tier.FloodMsgs != wantFloodMsgs || tier.FloodBytes != wantFloodBytes || tier.FloodRecall != wantFloodRecall {
		t.Errorf("flood msgs/bytes/recall per query = %v / %v / %v, want %v / %v / %v",
			tier.FloodMsgs, tier.FloodBytes, tier.FloodRecall, wantFloodMsgs, wantFloodBytes, wantFloodRecall)
	}
	// The routed arm's bill is bounded by its parts: route-term lookups plus
	// at most Refine term-vector fetches per query. (At this toy scale the
	// flood arm is cheaper — the advantage is a property of large networks,
	// pinned by BENCH_similarity.json, not of 32 peers.)
	if tier.RoutedMsgs <= 0 {
		t.Errorf("routed msgs/query = %v, want > 0", tier.RoutedMsgs)
	}
	if ratio := tier.FloodMsgs / tier.RoutedMsgs; tier.MsgAdvantage != ratio {
		t.Errorf("advantage = %v, want FloodMsgs/RoutedMsgs = %v", tier.MsgAdvantage, ratio)
	}
	// The refined routed arm must not trail the pure-sketch flood arm, and
	// both must retrieve something real.
	if tier.RoutedRecall <= 0 || tier.FloodRecall <= 0 {
		t.Errorf("degenerate recall: routed %v flood %v", tier.RoutedRecall, tier.FloodRecall)
	}
	if tier.RoutedRecall < tier.FloodRecall {
		t.Errorf("refined routed recall %v below pure-sketch flood recall %v",
			tier.RoutedRecall, tier.FloodRecall)
	}
	if got := len(res.Report().Rows); got != 1 {
		t.Errorf("report has %d rows, want 1", got)
	}
}

// TestFloodMatchesExactRanking: for every shared document as the query, from
// every issuer in turn, the flood arm's ranking equals a brute-force sketch
// cosine sort over all other shared documents — the issuer's own included —
// and it bills one message per peer other than the issuer. Documents sit on
// three of eight peers, so some peers own nothing.
func TestFloodMatchesExactRanking(t *testing.T) {
	cc := tiny().Corpus
	cc.NumDocs = 60
	col, err := corpus.Synthesize(cc)
	if err != nil {
		t.Fatal(err)
	}
	ring := chord.NewRing(simnet.New(1), chord.Config{})
	if _, err := ring.AddNodes("peer", 8); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := core.NewNetwork(ring, core.Config{
		InitialTerms: 3,
		Sketch:       sketch.Config{Enabled: true, Dims: 16, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Copies of the first two documents under other IDs sketch identically,
	// so their originals' scores tie and the ascending doc-ID order decides.
	docs := col.Corpus.Docs()
	docs = append(docs, corpus.NewDocument("copy0", docs[0].TF), corpus.NewDocument("copy1", docs[1].TF))
	peers := n.Peers()
	for i, d := range docs {
		if err := n.ShareCtx(context.Background(), peers[i%3].Addr(), d); err != nil {
			t.Fatal(err)
		}
	}
	ids := n.Documents()
	f := newFlood(n)
	for i, q := range ids {
		qsk, _ := n.DocSketch(q)
		want := make(ir.RankedList, 0, len(ids)-1)
		for _, d := range ids {
			if d == q {
				continue
			}
			sk, _ := n.DocSketch(d)
			want = append(want, ir.Hit{Doc: d, Score: sketch.CosineBytes([]byte(qsk), []byte(sk))})
		}
		want.Sort()
		from := peers[i%len(peers)].Addr()
		for _, k := range []int{10, len(ids)} {
			got, msgs, _ := f.query(from, q, k)
			if !reflect.DeepEqual(got, want.Top(k)) {
				t.Fatalf("flood top-%d for %s from %s diverges\n got %v\nwant %v", k, q, from, got, want.Top(k))
			}
			if msgs != len(peers)-1 {
				t.Fatalf("flood from %s sends %d messages, want %d", from, msgs, len(peers)-1)
			}
		}
	}
}
