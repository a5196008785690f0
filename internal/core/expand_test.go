package core

import (
	"context"
	"errors"
	"testing"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// expansionFixture builds a network where two documents co-occur heavily on
// a shared vocabulary, so local context analysis has a clear signal.
func expansionFixture(t *testing.T) *Network {
	t.Helper()
	n := testNetwork(t, 10, Config{InitialTerms: 4})
	// Two related documents about distributed consensus; a third unrelated.
	if err := n.ShareCtx(context.Background(), "p0", doc("raft", map[string]int{
		"consensu": 6, "leader": 4, "elect": 3, "replic": 3, "quorum": 2,
	})); err != nil {
		t.Fatal(err)
	}
	if err := n.ShareCtx(context.Background(), "p1", doc("paxos", map[string]int{
		"consensu": 5, "quorum": 4, "ballot": 3, "acceptor": 3, "replic": 1,
	})); err != nil {
		t.Fatal(err)
	}
	if err := n.ShareCtx(context.Background(), "p2", doc("bakery", map[string]int{
		"bread": 5, "oven": 4, "flour": 3, "yeast": 2,
	})); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSearchExpandedAddsCoOccurringTerms(t *testing.T) {
	n := expansionFixture(t)
	rl, expansion, err := n.SearchExpanded("p5", []string{"consensu"}, 5, ExpandOptions{
		FeedbackDocs: 2, ExpansionTerms: 2,
	})
	if err != nil {
		t.Fatalf("SearchExpanded: %v", err)
	}
	if len(expansion) == 0 {
		t.Fatal("no expansion terms produced despite strong co-occurrence")
	}
	// Expansion terms must come from the feedback docs' vocabulary, not the
	// unrelated one, and must not repeat the query.
	allowed := map[string]bool{
		"leader": true, "elect": true, "replic": true, "quorum": true,
		"ballot": true, "acceptor": true,
	}
	for _, term := range expansion {
		if term == "consensu" {
			t.Fatal("expansion repeated a query term")
		}
		if !allowed[term] {
			t.Fatalf("expansion term %q not from feedback documents", term)
		}
	}
	if len(rl) == 0 {
		t.Fatal("expanded search returned nothing")
	}
	// Both consensus docs should be in the results.
	found := map[string]bool{}
	for _, h := range rl {
		found[string(h.Doc)] = true
	}
	if !found["raft"] || !found["paxos"] {
		t.Fatalf("expanded results missing consensus docs: %v", rl)
	}
}

func TestSearchExpandedNoResults(t *testing.T) {
	n := expansionFixture(t)
	rl, expansion, err := n.SearchExpanded("p3", []string{"nonexistent"}, 5, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 0 || len(expansion) != 0 {
		t.Fatalf("expected empty results for unknown term, got %v / %v", rl, expansion)
	}
}

func TestSearchExpandedUnknownPeer(t *testing.T) {
	n := expansionFixture(t)
	if _, _, err := n.SearchExpanded("ghost", []string{"consensu"}, 5, ExpandOptions{}); !errors.Is(err, ErrNoSuchPeer) {
		t.Fatalf("unknown peer: err = %v, want ErrNoSuchPeer", err)
	}
}

func TestSearchExpandedSurvivesOwnerFailure(t *testing.T) {
	// If a feedback document's owner is offline, its term vector cannot be
	// fetched; expansion must proceed on the remaining evidence.
	n := expansionFixture(t)
	// p0 owns "raft"; fail it. Note the indexing peers for the terms are
	// other peers, so first-phase search may still find raft via them.
	n.Ring().Net().(simnet.FaultInjector).Fail("p0")
	_, expansion, err := n.SearchExpanded("p5", []string{"quorum"}, 5, ExpandOptions{
		FeedbackDocs: 2, ExpansionTerms: 2,
	})
	if err != nil {
		t.Fatalf("SearchExpanded with dead owner: %v", err)
	}
	// paxos (owner p1) still contributes, so expansion should still happen.
	if len(expansion) == 0 {
		t.Fatal("expansion produced nothing despite one live feedback owner")
	}
}

func TestSearchExpandedImprovesRecallOfRelatedDoc(t *testing.T) {
	// "ballot" appears only in paxos. A plain search finds only paxos; the
	// expanded query (enriched with paxos's co-occurring terms like consensu
	// and quorum) also surfaces raft.
	n := expansionFixture(t)
	plain, err := n.SearchCtx(context.Background(), "p4", []string{"ballot"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0].Doc != "paxos" {
		t.Fatalf("plain search = %v, want only paxos", plain)
	}
	rl, expansion, err := n.SearchExpanded("p4", []string{"ballot"}, 5, ExpandOptions{
		FeedbackDocs: 1, ExpansionTerms: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(expansion) == 0 {
		t.Fatal("no expansion")
	}
	found := map[string]bool{}
	for _, h := range rl {
		found[string(h.Doc)] = true
	}
	if !found["raft"] {
		t.Fatalf("expanded search did not surface the related doc: %v (expansion %v)", rl, expansion)
	}
	if found["bakery"] {
		t.Fatalf("expansion dragged in an unrelated doc: %v", rl)
	}
}

func TestExpandOptionsDefaults(t *testing.T) {
	o := ExpandOptions{}.withDefaults()
	if o.FeedbackDocs != 5 || o.ExpansionTerms != 3 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestHotTermAdvisoryDropsUbiquitousTerm(t *testing.T) {
	// Many documents index the same term; with the advisory enabled, owners
	// drop it at the next learning iteration.
	n := testNetwork(t, 8, Config{InitialTerms: 2, HotTermDF: 5, TermsPerIteration: 2, MaxIndexTerms: 6})
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		if err := n.ShareCtx(context.Background(), "p0", doc(id, map[string]int{"ubiquit": 5, "rare" + id: 3, "other" + id: 1})); err != nil {
			t.Fatal(err)
		}
	}
	// All 8 docs index "ubiquit" (df = 8 >= threshold 5). Every poll of a
	// sweep reads the indexed document frequency before any withdrawal of the
	// sweep, so every owner sees 8 and every document retires the term — the
	// same decision whatever the order or parallelism of the sweep.
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	df := 0
	for _, p := range n.Peers() {
		df += p.Index().DocFreq("ubiquit")
	}
	if df != 0 {
		t.Fatalf("hot term df = %d after the sweep, want every posting retired", df)
	}
	for i := 0; i < 8; i++ {
		id := index.DocID(rune('a' + i))
		terms, _ := n.IndexedTerms(id)
		// The freed slot must have been refilled — the doc stays at its term
		// budget rather than shrinking.
		if len(terms) < 2 {
			t.Fatalf("doc %s under-indexed after advisory: %v", id, terms)
		}
		if di, _ := n.DocIndexInfo(id); len(di.Banned) != 1 || di.Banned[0] != "ubiquit" {
			t.Fatalf("doc %s banned %v, want [ubiquit]", id, di.Banned)
		}
	}
	// A second iteration must not oscillate: a retired term is never
	// re-selected.
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, p := range n.Peers() {
		if got := p.Index().DocFreq("ubiquit"); got != 0 {
			t.Fatalf("advisory oscillated: %s indexes the retired term for %d docs", p.Addr(), got)
		}
	}
}

func TestHotTermAdvisoryDisabledByDefault(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 2})
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		if err := n.ShareCtx(context.Background(), "p0", doc(id, map[string]int{"common": 5, "x" + id: 3})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	stillIndexed := false
	for _, p := range n.Peers() {
		if p.Index().DocFreq("common") != 0 {
			stillIndexed = true
		}
	}
	if !stillIndexed {
		t.Fatal("term dropped despite advisory being disabled")
	}
}
