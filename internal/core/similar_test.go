package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/sketch"
)

func sketchConfig() sketch.Config {
	return sketch.Config{Enabled: true, Dims: 64, RouteTerms: 4, Seed: 7}
}

// similarCorpus shares a small corpus with controlled overlap: d0..d4 share
// the "core" vocabulary with graded weights, d5 is vocabulary-disjoint.
func similarCorpus(t *testing.T, n *Network) []index.DocID {
	t.Helper()
	docs := []struct {
		id string
		tf map[string]int
	}{
		{"d0", map[string]int{"alpha": 8, "beta": 6, "gamma": 3, "delta": 1}},
		{"d1", map[string]int{"alpha": 7, "beta": 6, "gamma": 3, "delta": 1}},
		{"d2", map[string]int{"alpha": 5, "beta": 2, "eps": 4}},
		{"d3", map[string]int{"alpha": 1, "gamma": 7, "zeta": 5}},
		{"d4", map[string]int{"beta": 4, "delta": 6, "eta": 2}},
		{"d5", map[string]int{"kappa": 9, "lambda": 4}},
	}
	ids := make([]index.DocID, 0, len(docs))
	for i, d := range docs {
		if err := n.Share(n.Peers()[i%len(n.Peers())].Addr(), doc(d.id, d.tf)); err != nil {
			t.Fatalf("Share %s: %v", d.id, err)
		}
		ids = append(ids, index.DocID(d.id))
	}
	return ids
}

// exactRanking computes the reference ranking: every shared document except
// the query doc, scored by serialized-sketch cosine, sorted by RankedList's
// (score desc, doc asc) order.
func exactRanking(t *testing.T, n *Network, qdoc index.DocID, ids []index.DocID, k int) ir.RankedList {
	t.Helper()
	qsk, ok := n.DocSketch(qdoc)
	if !ok {
		t.Fatalf("DocSketch(%s) missing", qdoc)
	}
	rl := make(ir.RankedList, 0, len(ids))
	for _, id := range ids {
		if id == qdoc {
			continue
		}
		sk, ok := n.DocSketch(id)
		if !ok {
			t.Fatalf("DocSketch(%s) missing", id)
		}
		rl = append(rl, ir.Hit{Doc: id, Score: sketch.CosineBytes([]byte(qsk), []byte(sk))})
	}
	rl.Sort()
	return rl.Top(k)
}

func TestFloodSimilarMatchesExactRanking(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 3, Sketch: sketchConfig()})
	ids := similarCorpus(t, n)
	for _, q := range ids {
		got, err := n.FloodSimilar("p3", q, 10)
		if err != nil {
			t.Fatalf("FloodSimilar(%s): %v", q, err)
		}
		want := exactRanking(t, n, q, ids, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flood ranking for %s diverges\n got %v\nwant %v", q, got, want)
		}
	}
}

func TestSearchSimilarFindsNeighbors(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 3, Sketch: sketchConfig()})
	ids := similarCorpus(t, n)
	rl, err := n.SearchSimilar("p5", "d0", 3)
	if err != nil {
		t.Fatalf("SearchSimilar: %v", err)
	}
	if len(rl) == 0 {
		t.Fatal("no results")
	}
	// d1 is near-identical to d0 and shares its top routing terms, so it must
	// rank first; the query doc itself must never appear.
	if rl[0].Doc != "d1" {
		t.Fatalf("top hit = %v, want d1 (rl=%v)", rl[0], rl)
	}
	for _, h := range rl {
		if h.Doc == "d0" {
			t.Fatalf("query doc in its own results: %v", rl)
		}
	}
	_ = ids
}

func TestSearchSimilarSubsetOfFlood(t *testing.T) {
	// The routed path sees a subset of the flooded candidate set (only docs
	// reachable through the query doc's routing terms), and must rank that
	// subset consistently with the exact scores.
	n := testNetwork(t, 10, Config{InitialTerms: 3, Sketch: sketchConfig()})
	ids := similarCorpus(t, n)
	full := exactRanking(t, n, "d0", ids, len(ids))
	scores := map[index.DocID]float64{}
	for _, h := range full {
		scores[h.Doc] = h.Score
	}
	rl, err := n.SearchSimilar("p2", "d0", 10)
	if err != nil {
		t.Fatalf("SearchSimilar: %v", err)
	}
	for i, h := range rl {
		want, ok := scores[h.Doc]
		if !ok {
			t.Fatalf("routed result %s not a shared doc", h.Doc)
		}
		if h.Score != want {
			t.Fatalf("routed score for %s = %v, want exact %v", h.Doc, h.Score, want)
		}
		if i > 0 && (rl[i-1].Score < h.Score ||
			(rl[i-1].Score == h.Score && rl[i-1].Doc >= h.Doc)) {
			t.Fatalf("routed ranking out of order at %d: %v", i, rl)
		}
	}
}

func TestSearchSimilarDeterministicAcrossCacheAndParallelism(t *testing.T) {
	build := func(cache bool, par int) ir.RankedList {
		cfg := Config{InitialTerms: 3, Sketch: sketchConfig(), Parallelism: par}
		if cache {
			cfg.Cache = CacheConfig{PostingsEntries: 64, PostingsTTL: 1e12}
		}
		n := testNetwork(t, 8, cfg)
		similarCorpus(t, n)
		rl, err := n.SearchSimilar("p4", "d2", 5)
		if err != nil {
			t.Fatalf("SearchSimilar(cache=%v,par=%d): %v", cache, par, err)
		}
		// A second identical query (cache warm) must agree with the first.
		rl2, err := n.SearchSimilar("p4", "d2", 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rl, rl2) {
			t.Fatalf("repeat query diverged (cache=%v): %v vs %v", cache, rl, rl2)
		}
		return rl
	}
	ref := build(false, 1)
	for _, cache := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			if got := build(cache, par); !reflect.DeepEqual(got, ref) {
				t.Fatalf("ranking differs (cache=%v par=%d):\n got %v\nwant %v", cache, par, got, ref)
			}
		}
	}
}

func TestSimilarRouteTermsOrderAndCap(t *testing.T) {
	cfg := sketchConfig()
	cfg.RouteTerms = 2
	n := testNetwork(t, 6, Config{InitialTerms: 4, Sketch: cfg})
	if err := n.Share("p0", doc("rt", map[string]int{"hi": 9, "mid": 5, "lo": 2, "tail": 1})); err != nil {
		t.Fatal(err)
	}
	route, err := n.SimilarRouteTerms("rt")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(route, []string{"hi", "mid"}) {
		t.Fatalf("route terms = %v, want [hi mid]", route)
	}
}

func TestSimilarRouteTermsFollowLearning(t *testing.T) {
	// Routing terms are the document's learned index terms: after learning
	// promotes a queried term into the index, similarity queries route
	// through it too.
	n := testNetwork(t, 8, Config{
		InitialTerms: 1, TermsPerIteration: 2, MaxIndexTerms: 4,
		Sketch: sketchConfig(),
	})
	if err := n.Share("p0", doc("ld", map[string]int{"common": 9, "niche": 3})); err != nil {
		t.Fatal(err)
	}
	before, err := n.SimilarRouteTerms("ld")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || before[0] != "common" {
		t.Fatalf("pre-learning route = %v", before)
	}
	n.InsertQuery("p3", []string{"common", "niche"})
	n.InsertQuery("p3", []string{"common", "niche"})
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, err := n.SimilarRouteTerms("ld")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, []string{"common", "niche"}) {
		t.Fatalf("post-learning route = %v, want [common niche]", after)
	}
}

func TestSearchSimilarErrors(t *testing.T) {
	// Disabled sketching refuses similarity queries outright.
	off := testNetwork(t, 4, Config{InitialTerms: 2})
	if err := off.Share("p0", doc("x", map[string]int{"a": 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := off.SearchSimilar("p1", "x", 5); !errors.Is(err, ErrSketchDisabled) {
		t.Fatalf("disabled: err = %v, want ErrSketchDisabled", err)
	}
	if _, err := off.FloodSimilar("p1", "x", 5); !errors.Is(err, ErrSketchDisabled) {
		t.Fatalf("disabled flood: err = %v, want ErrSketchDisabled", err)
	}

	on := testNetwork(t, 4, Config{InitialTerms: 2, Sketch: sketchConfig()})
	if _, err := on.SearchSimilar("p1", "ghost", 5); !errors.Is(err, ErrNoSuchDoc) {
		t.Fatalf("unshared doc: err = %v, want ErrNoSuchDoc", err)
	}
	if err := on.Share("p0", doc("y", map[string]int{"b": 2})); err != nil {
		t.Fatal(err)
	}
	if _, err := on.SearchSimilar("nobody", "y", 5); !errors.Is(err, ErrNoSuchPeer) {
		t.Fatalf("unknown peer: err = %v, want ErrNoSuchPeer", err)
	}
}

func TestSearchSimilarRecordsHistoryProbeDoesNot(t *testing.T) {
	run := func(cache bool, probe bool) int {
		cfg := Config{InitialTerms: 2, Sketch: sketchConfig()}
		if cache {
			cfg.Cache = CacheConfig{PostingsEntries: 64, PostingsTTL: 1e12}
		}
		n := testNetwork(t, 6, cfg)
		similarCorpus(t, n)
		var err error
		if probe {
			_, err = n.ProbeSimilar("p3", "d0", 5)
		} else {
			_, err = n.SearchSimilar("p3", "d0", 5)
		}
		if err != nil {
			t.Fatalf("query (cache=%v probe=%v): %v", cache, probe, err)
		}
		total := 0
		for _, p := range n.Peers() {
			total += p.HistoryLen()
		}
		return total
	}
	for _, cache := range []bool{false, true} {
		if got := run(cache, false); got == 0 {
			t.Fatalf("SearchSimilar (cache=%v) left no history", cache)
		}
		if got := run(cache, true); got != 0 {
			t.Fatalf("ProbeSimilar (cache=%v) recorded %d history entries", cache, got)
		}
	}
}

func TestFloodSimilarMessageBill(t *testing.T) {
	// The baseline's cost model: one sketch-scan call per peer. The querying
	// peer scans itself through the same path, but a self-call is free under
	// simnet's default accounting, so the wire bill is N-1.
	n := testNetwork(t, 12, Config{InitialTerms: 2, Sketch: sketchConfig()})
	similarCorpus(t, n)
	net := n.Ring().Net().(*simnet.Network)
	net.ResetStats()
	if _, err := n.FloodSimilar("p0", "d1", 5); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().CallsByType[msgSketchScan]; got != 11 {
		t.Fatalf("sketch scans = %d, want 11 (one per remote peer)", got)
	}
}

func TestSketchScanHandlerSortedAndComplete(t *testing.T) {
	n := testNetwork(t, 4, Config{InitialTerms: 2, Sketch: sketchConfig()})
	for i := 0; i < 9; i++ {
		// All on one peer, shared in scrambled ID order.
		id := fmt.Sprintf("s%d", (i*4)%9)
		if err := n.Share("p1", doc(id, map[string]int{"w": i + 1})); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := n.Owner("s0")
	resp := p.handleSketchScan()
	if len(resp.Docs) != 9 {
		t.Fatalf("scan returned %d docs, want 9", len(resp.Docs))
	}
	for i := 1; i < len(resp.Docs); i++ {
		if resp.Docs[i-1].Doc >= resp.Docs[i].Doc {
			t.Fatalf("scan not sorted: %v", resp.Docs)
		}
	}
	for _, ds := range resp.Docs {
		want, ok := n.DocSketch(ds.Doc)
		if !ok || ds.Sketch != want {
			t.Fatalf("scan sketch for %s diverges from owner state", ds.Doc)
		}
	}
}

func TestSimilarMetrics(t *testing.T) {
	n, reg := telemetryNetwork(t, 6, Config{InitialTerms: 3, Sketch: sketchConfig()})
	similarCorpus(t, n)
	if _, err := n.SearchSimilar("p0", "d0", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := n.FloodSimilar("p0", "d0", 5); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sprite.similar.searches").Value(); got != 1 {
		t.Fatalf("similar.searches = %d, want 1", got)
	}
	if got := reg.Counter("sprite.similar.floods").Value(); got != 1 {
		t.Fatalf("similar.floods = %d, want 1", got)
	}
	if got := reg.Counter("sprite.similar.candidates").Value(); got < 1 {
		t.Fatalf("similar.candidates = %d, want >= 1", got)
	}
}

func TestSearchSimilarRefineMatchesExact(t *testing.T) {
	// With Refine on, the returned scores are the exact weighted cosine of the
	// full term vectors — not the sketch approximation — and the ranking is
	// the exact-cosine order over the routed candidate set.
	tfs := map[index.DocID]map[string]int{
		"d0": {"alpha": 8, "beta": 6, "gamma": 3, "delta": 1},
		"d1": {"alpha": 7, "beta": 6, "gamma": 3, "delta": 1},
		"d2": {"alpha": 5, "beta": 2, "eps": 4},
		"d3": {"alpha": 1, "gamma": 7, "zeta": 5},
		"d4": {"beta": 4, "delta": 6, "eta": 2},
	}
	cfg := sketchConfig()
	cfg.Refine = 8
	n := testNetwork(t, 8, Config{InitialTerms: 3, Sketch: cfg})
	similarCorpus(t, n)

	net := n.Ring().Net().(*simnet.Network)
	net.ResetStats()
	rl, err := n.SearchSimilar("p5", "d0", 4)
	if err != nil {
		t.Fatalf("SearchSimilar: %v", err)
	}

	// d0 routes through alpha/beta/gamma, which together reach exactly
	// d1..d4 (d5 is vocabulary-disjoint). The refined result is their exact
	// ranking.
	qw, qn := cosineWeights(tfs["d0"])
	want := make(ir.RankedList, 0, 4)
	for _, id := range []index.DocID{"d1", "d2", "d3", "d4"} {
		want = append(want, ir.Hit{Doc: id, Score: exactCosine(qw, qn, tfs[id])})
	}
	want.Sort()
	if !reflect.DeepEqual(rl, want) {
		t.Fatalf("refined ranking diverges\n got %v\nwant %v", rl, want)
	}
	if rl[0].Doc != "d1" {
		t.Fatalf("top refined hit = %v, want d1", rl[0])
	}

	// One owner fetch per distinct candidate, never more than Refine.
	if got := net.Stats().CallsByType[msgDocTerms]; got != 4 {
		t.Fatalf("doc-terms fetches = %d, want 4 (one per candidate)", got)
	}

	// Refined rankings obey the same determinism contract as unrefined ones.
	for _, par := range []int{1, 8} {
		n2 := testNetwork(t, 8, Config{InitialTerms: 3, Sketch: cfg, Parallelism: par})
		similarCorpus(t, n2)
		got, err := n2.SearchSimilar("p5", "d0", 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rl) {
			t.Fatalf("refined ranking differs at par=%d:\n got %v\nwant %v", par, got, rl)
		}
	}
}

func TestSearchSimilarRefineDegradesToSketchScore(t *testing.T) {
	// A candidate whose owner is unreachable keeps its first-stage sketch
	// score instead of vanishing from the result.
	cfg := sketchConfig()
	cfg.Refine = 8
	n := testNetwork(t, 8, Config{InitialTerms: 3, Sketch: cfg})
	ids := similarCorpus(t, n)
	owner, ok := n.Owner("d1")
	if !ok {
		t.Fatal("no owner for d1")
	}
	net := n.Ring().Net().(*simnet.Network)
	net.Fail(owner.Addr())

	rl, err := n.SearchSimilar("p5", "d0", 4)
	if err != nil {
		t.Fatalf("SearchSimilar: %v", err)
	}
	sketchScores := exactRanking(t, n, "d0", ids, len(ids))
	found := false
	for _, h := range rl {
		if h.Doc != "d1" {
			continue
		}
		found = true
		for _, s := range sketchScores {
			if s.Doc == "d1" && h.Score != s.Score {
				t.Fatalf("d1 score = %v, want sketch fallback %v", h.Score, s.Score)
			}
		}
	}
	if !found {
		t.Fatalf("d1 dropped from refined results: %v", rl)
	}
}

func TestPostingSketchSurvivesDHTRoundTrip(t *testing.T) {
	// End-to-end: the sketch attached at publish time is the same bytes a
	// query-side cursor yields after the posting crossed the simulated wire
	// inside an Encoded block.
	n := testNetwork(t, 8, Config{InitialTerms: 2, Sketch: sketchConfig()})
	if err := n.Share("p0", doc("rt1", map[string]int{"foo": 5, "bar": 2})); err != nil {
		t.Fatal(err)
	}
	want, _ := n.DocSketch("rt1")
	if want == "" {
		t.Fatal("owner sketch empty")
	}
	if !sketch.Valid([]byte(want)) {
		t.Fatal("owner sketch not a valid serialized vector")
	}
	found := false
	for _, p := range n.Peers() {
		cur := p.Index().Cursor("foo")
		for {
			docBytes, _, _, ok := cur.NextBytes()
			if !ok {
				break
			}
			if string(docBytes) == "rt1" {
				found = true
				if got := string(cur.SketchBytes()); got != want {
					t.Fatalf("posting sketch diverges from owner sketch")
				}
			}
		}
	}
	if !found {
		t.Fatal("posting for rt1/foo not found in any index")
	}
}
