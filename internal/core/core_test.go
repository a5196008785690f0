package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// testNetwork builds a SPRITE network over a freshly built ring.
func testNetwork(t testing.TB, peers int, cfg Config) *Network {
	t.Helper()
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("p", peers); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	ring.Build()
	n, err := NewNetwork(ring, cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func doc(id string, tf map[string]int) *corpus.Document {
	return corpus.NewDocument(index.DocID(id), tf)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{InitialTerms: -1},
		{InitialTerms: 10, MaxIndexTerms: 5},
		{TermsPerIteration: -1},
		{HistoryCap: -1},
		{ReplicationFactor: -2},
		{SurrogateN: 1},
	}
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	ring.AddNodes("v", 2)
	ring.Build()
	for i, cfg := range bad {
		if _, err := NewNetwork(ring, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestShareIndexesTopFrequentTerms(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 2})
	d := doc("d1", map[string]int{"alpha": 9, "beta": 7, "gamma": 2, "delta": 1})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatalf("Share: %v", err)
	}
	terms, err := n.IndexedTerms("d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 || terms[0] != "alpha" || terms[1] != "beta" {
		t.Fatalf("indexed terms = %v, want [alpha beta]", terms)
	}
	// The postings must live at the peers the DHT assigns.
	if n.TotalPostings() != 2 {
		t.Fatalf("total postings = %d, want 2", n.TotalPostings())
	}
}

func TestShareRejectsDuplicatesAndUnknownPeer(t *testing.T) {
	n := testNetwork(t, 4, Config{})
	d := doc("d1", map[string]int{"a": 1})
	if err := n.ShareCtx(context.Background(), "ghost", d); err == nil {
		t.Fatal("unknown peer accepted")
	}
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	if err := n.ShareCtx(context.Background(), "p1", d); err == nil {
		t.Fatal("duplicate share accepted")
	}
}

func TestSearchFindsSharedDocument(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 3})
	if err := n.ShareCtx(context.Background(), "p0", doc("d1", map[string]int{"chord": 5, "dht": 3, "ring": 2})); err != nil {
		t.Fatal(err)
	}
	rl, err := n.SearchCtx(context.Background(), "p3", []string{"chord"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 || rl[0].Doc != "d1" {
		t.Fatalf("search = %v", rl)
	}
}

func TestSearchUnindexedTermMisses(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 1})
	if err := n.ShareCtx(context.Background(), "p0", doc("d1", map[string]int{"chord": 5, "rare": 1})); err != nil {
		t.Fatal(err)
	}
	rl, err := n.SearchCtx(context.Background(), "p1", []string{"rare"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 0 {
		t.Fatalf("unindexed term matched: %v", rl)
	}
}

func TestQueriesCachedAtIndexingPeers(t *testing.T) {
	n := testNetwork(t, 6, Config{})
	if err := n.InsertQueryCtx(context.Background(), "p0", []string{"storage", "engine"}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range n.Peers() {
		total += p.HistoryLen()
	}
	// Two terms; they may hash to the same peer (then the identical query
	// deduplicates) or two peers.
	if total < 1 || total > 2 {
		t.Fatalf("history entries = %d, want 1 or 2", total)
	}
}

func TestSearchAlsoCachesQuery(t *testing.T) {
	n := testNetwork(t, 6, Config{InitialTerms: 1})
	if err := n.ShareCtx(context.Background(), "p0", doc("d1", map[string]int{"engine": 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SearchCtx(context.Background(), "p2", []string{"engine", "turbo"}, 5); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range n.Peers() {
		total += p.HistoryLen()
	}
	if total < 1 {
		t.Fatal("search did not cache the query at any indexing peer")
	}
}

func TestLearnAddsQueriedTerms(t *testing.T) {
	// The Figure 1 scenario: a document indexed on frequent terms receives
	// queries mentioning less frequent terms it contains; learning must
	// index those terms — and must NOT index frequent-but-never-queried
	// terms.
	n := testNetwork(t, 10, Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 10})
	d := doc("doc1", map[string]int{
		"a": 10, "b": 9, // initial picks
		"c": 8,         // frequent but never queried (the paper's term c)
		"d": 3, "e": 2, // queried terms
	})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	// Queries arrive containing the indexed term a plus the unindexed d / e.
	for _, q := range [][]string{{"a", "d"}, {"a", "d", "e"}, {"b", "e"}, {"a", "d"}} {
		if err := n.InsertQueryCtx(context.Background(), "p5", q); err != nil {
			t.Fatal(err)
		}
	}
	changes, err := n.LearnAllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if changes == 0 {
		t.Fatal("learning made no changes")
	}
	terms, _ := n.IndexedTerms("doc1")
	has := func(x string) bool {
		for _, t := range terms {
			if t == x {
				return true
			}
		}
		return false
	}
	if !has("d") || !has("e") {
		t.Fatalf("queried terms not learned: %v", terms)
	}
	if has("c") {
		t.Fatalf("never-queried term c was indexed: %v", terms)
	}
}

func TestLearnRespectsCapAndReplaces(t *testing.T) {
	n := testNetwork(t, 10, Config{InitialTerms: 2, TermsPerIteration: 5, MaxIndexTerms: 3})
	d := doc("doc1", map[string]int{
		"a": 10, "b": 9, "x": 5, "y": 4, "z": 3,
	})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	// Queries strongly favor x, y, z — none of the initial terms appear
	// except a (needed so the owner hears about the queries at all).
	for _, q := range [][]string{
		{"a", "x", "y"}, {"a", "x", "z"}, {"a", "x", "y"}, {"a", "y", "z"},
	} {
		if err := n.InsertQueryCtx(context.Background(), "p5", q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	terms, _ := n.IndexedTerms("doc1")
	if len(terms) > 3 {
		t.Fatalf("cap violated: %v", terms)
	}
	// b was never queried; with the cap at 3 and three well-queried
	// candidates (x, y, z beat it), b must have been replaced.
	for _, term := range terms {
		if term == "b" {
			t.Fatalf("never-queried initial term b survived replacement: %v", terms)
		}
	}
	// Unpublished terms must be gone from the DHT.
	found := false
	for _, p := range n.Peers() {
		if p.Index().DocFreq("b") != 0 {
			found = true
		}
	}
	if found {
		t.Fatal("replaced term b still has postings in the DHT")
	}

	// The same sweep on a twin whose withdrawal of b is lost: b stays
	// indexed where it was, its candidate y is not published, and the
	// document fails.
	twin, sim := cacheTestNetwork(t, 10, Config{InitialTerms: 2, TermsPerIteration: 5, MaxIndexTerms: 3})
	if err := twin.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]string{{"a", "x", "y"}, {"a", "x", "z"}, {"a", "x", "y"}, {"a", "y", "z"}} {
		if err := twin.InsertQueryCtx(context.Background(), "p5", q); err != nil {
			t.Fatal(err)
		}
	}
	info, _ := twin.DocIndexInfo("doc1")
	bAt := info.PublishedAt["b"]
	if bAt == "p0" {
		t.Fatal("the owner holds b itself (hash layout): no call to drop")
	}
	sim.DropCallsAfter(bAt, 1, 1) // the poll goes through, the withdrawal does not
	if _, err := twin.LearnAllCtx(context.Background()); err == nil {
		t.Fatal("a sweep whose replacement failed returned no error")
	}
	terms, _ = twin.IndexedTerms("doc1")
	if !slices.Contains(terms, "b") || slices.Contains(terms, "y") || len(terms) > 3 {
		t.Fatalf("after the lost withdrawal doc1 indexes %v, want b kept and y not published", terms)
	}
	if got := holdersOf(twin, "b", "doc1"); len(got) != 1 || got[0] != bAt {
		t.Fatalf("b held at %v after the lost withdrawal, want %s", got, bAt)
	}
	if got := holdersOf(twin, "y", "doc1"); len(got) != 0 {
		t.Fatalf("the candidate y was published at %v", got)
	}

	// Two replacements, x for c and y for b, of which only c's withdrawal is
	// lost: c stays and x is not published, while b goes and y takes its
	// place.
	both, sim := cacheTestNetwork(t, 10, Config{InitialTerms: 3, TermsPerIteration: 2, MaxIndexTerms: 3})
	bNode, _ := both.Ring().Owner(chordid.HashKey("b"))
	cNode, _ := both.Ring().Owner(chordid.HashKey("c"))
	if bNode == cNode {
		t.Fatal("b and c share a holder (hash layout): their withdrawals cannot fail apart")
	}
	owner := simnet.Addr("p0")
	for _, p := range both.Peers() {
		if owner = p.Addr(); owner != bNode.Addr() && owner != cNode.Addr() {
			break
		}
	}
	if err := both.ShareCtx(context.Background(), owner, doc("doc2", map[string]int{"a": 10, "b": 9, "c": 8, "x": 5, "y": 4})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := both.InsertQueryCtx(context.Background(), "p5", []string{"a", "x", "y"}); err != nil {
			t.Fatal(err)
		}
	}
	sim.DropCallsAfter(cNode.Addr(), 1, 1)
	if _, err := both.LearnAllCtx(context.Background()); err == nil {
		t.Fatal("a sweep whose replacement failed returned no error")
	}
	if terms, _ := both.IndexedTerms("doc2"); !slices.Equal(terms, []string{"a", "c", "y"}) {
		t.Fatalf("after losing c's withdrawal doc2 indexes %v, want [a c y]", terms)
	}
	for term, want := range map[string]int{"b": 0, "c": 1, "x": 0, "y": 1} {
		if got := holdersOf(both, term, "doc2"); len(got) != want {
			t.Fatalf("%q held at %v, want %d copies", term, got, want)
		}
	}
}

func TestLearnIncrementalWatermark(t *testing.T) {
	// Algorithm 1's point: a second learning iteration with no new queries
	// must pull nothing and change nothing.
	n := testNetwork(t, 8, Config{InitialTerms: 2, TermsPerIteration: 3, MaxIndexTerms: 10})
	d := doc("doc1", map[string]int{"a": 5, "b": 4, "c": 2, "d": 1})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	n.InsertQueryCtx(context.Background(), "p3", []string{"a", "c"})
	n.InsertQueryCtx(context.Background(), "p3", []string{"a", "d"})
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	termsAfter1, _ := n.IndexedTerms("doc1")

	net := n.Ring().Net().(*simnet.Network)
	net.ResetStats()
	changes, err := n.LearnAllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if changes != 0 {
		t.Fatalf("second iteration with no new queries made %d changes", changes)
	}
	termsAfter2, _ := n.IndexedTerms("doc1")
	if len(termsAfter1) != len(termsAfter2) {
		t.Fatalf("index changed without new queries: %v -> %v", termsAfter1, termsAfter2)
	}
	// Poll replies must carry no queries (incremental set is empty).
	if calls := net.Stats().CallsByType[msgPublish]; calls != 0 {
		t.Fatalf("stale publishes: %d", calls)
	}
}

func TestLearnedTermImprovesSearch(t *testing.T) {
	// End-to-end: a query that initially misses the document finds it after
	// learning.
	n := testNetwork(t, 10, Config{InitialTerms: 1, TermsPerIteration: 2, MaxIndexTerms: 5})
	d := doc("doc1", map[string]int{"common": 10, "niche": 2})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	before, _ := n.SearchCtx(context.Background(), "p4", []string{"niche"}, 5)
	if len(before) != 0 {
		t.Fatalf("niche should miss before learning: %v", before)
	}
	// A user finds the doc via "common" but their query also had "niche".
	n.InsertQueryCtx(context.Background(), "p4", []string{"common", "niche"})
	n.InsertQueryCtx(context.Background(), "p4", []string{"common", "niche"})
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, _ := n.SearchCtx(context.Background(), "p4", []string{"niche"}, 5)
	if len(after) != 1 || after[0].Doc != "doc1" {
		t.Fatalf("niche should hit after learning: %v", after)
	}
}

func TestQScore(t *testing.T) {
	d := doc("d", map[string]int{"a": 1, "b": 1})
	if got := qScore([]string{"a", "b"}, d); got != 1.0 {
		t.Fatalf("qScore fully-matching = %v", got)
	}
	if got := qScore([]string{"a", "z"}, d); got != 0.5 {
		t.Fatalf("qScore half-matching = %v", got)
	}
	if got := qScore(nil, d); got != 0 {
		t.Fatalf("qScore empty = %v", got)
	}
}

func TestTermStatScoreMatchesPaperExample(t *testing.T) {
	// Fig. 2(b): qScore 0.75 with QF 20 → 0.75·log₁₀20 = 0.975.
	ts := ownedTerm{qf: 20, maxQS: 0.75}
	if got := ts.score(ScoreQScoreLogQF); math.Abs(got-0.975) > 0.001 {
		t.Fatalf("score = %v, want ≈0.975", got)
	}
	// 0.33·log₁₀32 ≈ 0.497 (the paper rounds its inputs and prints 0.501).
	ts = ownedTerm{qf: 32, maxQS: 0.33}
	if got := ts.score(ScoreQScoreLogQF); math.Abs(got-0.4967) > 0.001 {
		t.Fatalf("score = %v, want ≈0.4967", got)
	}
	// QF = 1 → log 1 = 0.
	ts = ownedTerm{qf: 1, maxQS: 0.9}
	if got := ts.score(ScoreQScoreLogQF); got != 0 {
		t.Fatalf("score with QF=1 = %v, want 0", got)
	}
}

func TestClosestTermDeterministic(t *testing.T) {
	query := []string{"alpha", "beta"}
	q := queryHash(query)
	elect := func(docTerms ...string) string {
		return closestTerm(q, query, docTerms, make([]termID, len(docTerms)))
	}
	first := elect("alpha", "beta", "gamma")
	for i := 0; i < 5; i++ {
		if got := elect("alpha", "beta", "gamma"); got != first {
			t.Fatal("closestTerm not deterministic")
		}
	}
	// Order of candidates must not matter.
	if got := elect("gamma", "beta", "alpha"); got != first {
		t.Fatal("closestTerm depends on candidate order")
	}
	// Only a document term that occurs in the query can be elected.
	if got := elect("gamma"); got != "" {
		t.Fatalf("closestTerm elected %q, which the query does not contain", got)
	}
	if got := elect("gamma", "beta"); got != "beta" {
		t.Fatalf("closestTerm = %q, want the one candidate %q", got, "beta")
	}
}

func TestCanonicalQueryOrderIndependent(t *testing.T) {
	a := queryHash([]string{"x", "y", "z"})
	b := queryHash([]string{"z", "x", "y"})
	if a != b {
		t.Fatal("query hash depends on term order")
	}
}

func TestPollDeduplication(t *testing.T) {
	// A query containing two of a document's index terms must be returned by
	// exactly one indexing peer across a full poll sweep.
	n := testNetwork(t, 10, Config{InitialTerms: 2, TermsPerIteration: 5, MaxIndexTerms: 10})
	d := doc("doc1", map[string]int{"aaa": 5, "bbb": 4, "ccc": 1})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	// Query contains both indexed terms plus ccc.
	n.InsertQueryCtx(context.Background(), "p3", []string{"aaa", "bbb", "ccc"})
	p, _ := n.Owner("doc1")
	st := p.owned["doc1"]

	// Manually poll both terms and count how many times the query comes back.
	count := 0
	for _, term := range []string{"aaa", "bbb"} {
		ref, _, err := p.node.Lookup(hashOfTerm(term))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := n.ring.Net().CallCtx(context.Background(), p.Addr(), ref.Addr, simnet.Message{
			Type: msgPoll,
			Payload: pollReq{Docs: []pollDoc{{
				Doc:      "doc1",
				DocTerms: []string{"aaa", "bbb"},
				Terms:    []pollTerm{{Term: term}},
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range reply.Payload.(pollResp).Items[0].Queries {
			count += q.Copies
		}
	}
	if count != 1 {
		t.Fatalf("query returned %d times across polls, want exactly 1", count)
	}
	_ = st
}

func TestHistoryCapEvictsOldest(t *testing.T) {
	n := testNetwork(t, 1, Config{HistoryCap: 3})
	p := n.Peers()[0]
	for _, q := range [][]string{{"q1"}, {"q2"}, {"q3"}, {"q4"}} {
		if err := n.InsertQueryCtx(context.Background(), p.Addr(), q); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.HistoryLen(); got != 3 {
		t.Fatalf("history len = %d, want 3", got)
	}
	p.indexing.mu.Lock()
	defer p.indexing.mu.Unlock()
	for _, q := range p.indexing.history.ring {
		if canonicalQuery(p.indexing.history.queries[q].terms) == "q1" {
			t.Fatal("oldest query not evicted")
		}
	}
}

func TestRepeatedQueriesCountAsIssuances(t *testing.T) {
	// The paper's QF counts every issuance of a query, so the history counts
	// repeats as separate issuances (bounded by HistoryCap).
	n := testNetwork(t, 1, Config{HistoryCap: 10})
	p := n.Peers()[0]
	for i := 0; i < 5; i++ {
		n.InsertQueryCtx(context.Background(), p.Addr(), []string{"popular", "query"})
	}
	// One query with two terms on a single peer: the cache message is sent
	// once per distinct term, so each insertion stores two issuances... on a
	// one-peer ring both terms resolve to the same peer, and InsertQuery
	// sends one cache message per distinct term.
	if got := p.HistoryLen(); got != 10 {
		t.Fatalf("history len = %d, want 10 (5 issuances x 2 term messages)", got)
	}
}

func TestHistoryRepeatsDriveQF(t *testing.T) {
	// Under a repeat-heavy stream, QF — and thus Score — must reflect the
	// repetition: a term queried 8 times beats a term queried once even when
	// both queries match the document equally well.
	n := testNetwork(t, 8, Config{InitialTerms: 1, TermsPerIteration: 1, MaxIndexTerms: 2})
	d := doc("D", map[string]int{"anchor": 9, "hotterm": 2, "coldterm": 2})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.InsertQueryCtx(context.Background(), "p3", []string{"anchor", "hotterm"})
	}
	n.InsertQueryCtx(context.Background(), "p3", []string{"anchor", "coldterm"})
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	terms, _ := n.IndexedTerms("D")
	found := false
	for _, term := range terms {
		if term == "hotterm" {
			found = true
		}
		if term == "coldterm" {
			t.Fatalf("cold term beat hot term: %v", terms)
		}
	}
	if !found {
		t.Fatalf("hot term not selected: %v", terms)
	}
}

func hashOfTerm(t string) chordid.ID {
	return chordid.HashKey(t)
}

func TestConcurrentSearchDuringLearning(t *testing.T) {
	// Searches, query insertions, and learning run concurrently from
	// different goroutines; under -race this verifies the locking of both
	// peer roles.
	n := testNetwork(t, 16, Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 8})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("cd%02d", i)
		tf := map[string]int{
			fmt.Sprintf("term%02d", i):   3,
			fmt.Sprintf("term%02d", i+1): 2,
			"shared":                     1,
		}
		if err := n.ShareCtx(context.Background(), n.Peers()[i%16].Addr(), doc(id, tf)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			q := []string{fmt.Sprintf("term%02d", i%21), "shared"}
			if _, err := n.SearchCtx(context.Background(), n.Peers()[i%16].Addr(), q, 10); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			q := []string{fmt.Sprintf("term%02d", (i+7)%21)}
			if err := n.InsertQueryCtx(context.Background(), n.Peers()[(i+3)%16].Addr(), q); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := n.LearnAllCtx(context.Background()); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentLearnAndInspect(t *testing.T) {
	// LearnDoc and IndexedTerms race on the same document's state; the
	// per-document mutex must make this safe under -race.
	n := testNetwork(t, 8, Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 8})
	if err := n.ShareCtx(context.Background(), "p0", doc("hotdoc", map[string]int{"aa": 5, "bb": 3, "cc": 2, "dd": 1})); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			n.InsertQueryCtx(context.Background(), "p3", []string{"aa", "cc"})
			n.LearnDocCtx(context.Background(), "hotdoc")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			n.IndexedTerms("hotdoc")
		}
	}()
	wg.Wait()
}

func TestSearchReturnsValidOwners(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 2})
	if err := n.ShareCtx(context.Background(), "p2", doc("owned", map[string]int{"specific": 3, "marker": 1})); err != nil {
		t.Fatal(err)
	}
	rl, err := n.SearchCtx(context.Background(), "p5", []string{"specific"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 {
		t.Fatalf("results = %v", rl)
	}
	// The posting's Owner field must round-trip through the DHT so the
	// retrieval phase (downloading from the owner) can proceed.
	owner, ok := n.Owner("owned")
	if !ok || owner.Addr() != "p2" {
		t.Fatalf("owner registry wrong: %v %v", owner, ok)
	}
}

func TestSurrogateNConsistency(t *testing.T) {
	// Per §4, the absolute N does not matter as long as it is shared: two
	// networks differing only in SurrogateN must produce identical rankings.
	build := func(surrogate int) ir.RankedList {
		n := testNetwork(t, 8, Config{InitialTerms: 3, SurrogateN: surrogate})
		n.ShareCtx(context.Background(), "p0", doc("a", map[string]int{"x": 5, "y": 2, "z": 1}))
		n.ShareCtx(context.Background(), "p1", doc("b", map[string]int{"x": 1, "y": 4, "w": 2}))
		n.ShareCtx(context.Background(), "p2", doc("c", map[string]int{"x": 2, "w": 5, "z": 2}))
		rl, err := n.SearchCtx(context.Background(), "p4", []string{"x", "y"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return rl
	}
	small := build(1 << 10)
	large := build(1 << 30)
	if len(small) != len(large) {
		t.Fatalf("result counts differ: %d vs %d", len(small), len(large))
	}
	for i := range small {
		if small[i].Doc != large[i].Doc {
			t.Fatalf("rank %d differs across surrogate N: %v vs %v", i, small[i].Doc, large[i].Doc)
		}
	}
}

func TestAdoptIdempotent(t *testing.T) {
	n := testNetwork(t, 4, Config{})
	node := n.Ring().Nodes()[0]
	p1 := n.Adopt(node)
	p2 := n.Adopt(node)
	if p1 != p2 {
		t.Fatal("Adopt created a duplicate peer for a known node")
	}
	if len(n.Peers()) != 4 {
		t.Fatalf("Adopt changed the peer count: %d", len(n.Peers()))
	}
}
