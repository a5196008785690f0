package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// advisoryNet builds a 5-peer network with three documents sharing one hot
// term, owned by the given peers. HotTermDF is 3, so the first learning
// sweep retires "hot" from all three: every poll of a sweep reads the
// indexed document frequency before any withdrawal of the sweep. The sweep
// runs sequentially, so that each call to the hot term's indexing peer comes
// at the same position in every run — the fault sweep below drops calls by
// position.
func advisoryNet(t *testing.T, owners [3]simnet.Addr) (*simnet.Network, *Network, []*corpus.Document) {
	t.Helper()
	sim := simnet.New(42)
	ring := chord.NewRing(sim, chord.Config{})
	if _, err := ring.AddNodes("h", 5); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 4, HotTermDF: 3, Parallelism: 1})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	docs := []*corpus.Document{
		doc("d1", map[string]int{"hot": 9, "aa": 5, "bb": 3, "cc": 2}),
		doc("d2", map[string]int{"hot": 9, "dd": 5, "ee": 3, "ff": 2}),
		doc("d3", map[string]int{"hot": 9, "gg": 5, "hh": 3, "ii": 2}),
	}
	for i, d := range docs {
		if err := n.ShareCtx(context.Background(), owners[i], d); err != nil {
			t.Fatalf("Share %s: %v", d.ID, err)
		}
	}
	return sim, n, docs
}

// advisoryOwners picks three owner peers distinct from the hot term's
// indexing peer, so the retirement unpublish is a real network call that
// fault injection can intercept (a local-bypass call cannot be dropped).
func advisoryOwners(t *testing.T) ([3]simnet.Addr, simnet.Addr) {
	t.Helper()
	_, probe, docs := advisoryNet(t, [3]simnet.Addr{"h0", "h1", "h2"})
	di, ok := probe.DocIndexInfo(docs[0].ID)
	if !ok {
		t.Fatal("probe doc not shared")
	}
	hotAt, ok := di.PublishedAt["hot"]
	if !ok {
		t.Fatal("probe: hot term not published")
	}
	var owners [3]simnet.Addr
	k := 0
	for i := 0; k < 3 && i < 5; i++ {
		a := simnet.Addr(fmt.Sprintf("h%d", i))
		if a != hotAt {
			owners[k] = a
			k++
		}
	}
	return owners, hotAt
}

// checkAdvisoryConsistent asserts the owner-side view and the global index
// agree for every document: a banned term has neither an owner record nor a
// surviving primary entry, and every indexed term's entry exists where the
// owner thinks it is. This is the state the stale-advisory bug violated.
func checkAdvisoryConsistent(t *testing.T, n *Network, docs []*corpus.Document, tag string) {
	t.Helper()
	type key struct {
		peer simnet.Addr
		term string
		doc  index.DocID
	}
	entries := make(map[key]bool)
	for _, e := range n.PrimarySnapshot() {
		entries[key{e.Peer, e.Term, e.Posting.Doc}] = true
	}
	for _, d := range docs {
		di, ok := n.DocIndexInfo(d.ID)
		if !ok {
			t.Fatalf("%s: %s not shared", tag, d.ID)
		}
		for _, b := range di.Banned {
			for _, term := range di.Terms {
				if term == b {
					t.Errorf("%s: %s: banned term %q still in indexed set", tag, d.ID, b)
				}
			}
			for k := range entries {
				if k.term == b && k.doc == d.ID {
					t.Errorf("%s: %s: banned term %q still has a primary entry at %s (stale advisory)", tag, d.ID, b, k.peer)
				}
			}
		}
		for _, term := range di.Terms {
			at, ok := di.PublishedAt[term]
			if !ok {
				t.Errorf("%s: %s: indexed term %q has no publishedAt record", tag, d.ID, term)
				continue
			}
			if !entries[key{at, term, d.ID}] {
				t.Errorf("%s: %s: indexed term %q missing its entry at %s", tag, d.ID, term, at)
			}
		}
	}
}

// The hot-term advisory must commit only when the entry's removal actually
// reached the indexing peer. Regression: a fault between the poll and the
// unpublish (a peer failing mid-LearnAll, a packet lost) used to leave the
// term banned and unindexed while its entry survived — resurfacing
// ownerless, and unremovable, when the peer recovered.
//
// The sweep drops exactly one call to the hot term's indexing peer at every
// possible position during the learning sweep and asserts owner/index
// consistency at each; one of those positions is the retirement unpublish.
func TestHotTermAdvisoryConsistentUnderSingleDrop(t *testing.T) {
	owners, hotAt := advisoryOwners(t)

	// Baseline, no faults: the advisory retires "hot" from every document
	// and the entries are gone.
	sim, n, docs := advisoryNet(t, owners)
	before := sim.Stats().CallsByDest[hotAt]
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("baseline LearnAll: %v", err)
	}
	total := sim.Stats().CallsByDest[hotAt] - before
	if total == 0 {
		t.Fatal("baseline learning sweep made no calls to the hot term's indexing peer")
	}
	checkAdvisoryConsistent(t, n, docs, "baseline")
	checkHotRetired(t, n, docs, "baseline")

	// Fault sweep: one dropped call per run, at every position.
	sawDroppedRetirement := false
	for skip := int64(0); skip < total; skip++ {
		sim, n, docs := advisoryNet(t, owners)
		sim.DropCallsAfter(hotAt, int(skip), 1)
		_, _ = n.LearnAllCtx(context.Background()) // a dropped publish may surface as an error; consistency must hold regardless
		checkAdvisoryConsistent(t, n, docs, fmt.Sprintf("skip=%d", skip))

		di, _ := n.DocIndexInfo(docs[0].ID)
		stillIndexed := false
		for _, term := range di.Terms {
			if term == "hot" {
				stillIndexed = true
			}
		}
		if stillIndexed && len(di.Banned) == 0 {
			// The drop landed on the retirement unpublish: the ban must have
			// been rolled back with the term still (consistently) indexed.
			sawDroppedRetirement = true
		}
	}
	if !sawDroppedRetirement {
		t.Error("no drop position intercepted the retirement unpublish; the regression path was not exercised")
	}
}

// After a faulted retirement, the next healthy learning sweep must retire
// the term for real — the advisory retries instead of wedging.
func TestHotTermAdvisoryRetriesAfterFault(t *testing.T) {
	owners, hotAt := advisoryOwners(t)
	sim, n, docs := advisoryNet(t, owners)

	// Fail the indexing peer mid-sweep semantics: drop every call to it, so
	// the poll that flags the hot term may or may not land — either way no
	// retirement can complete this round.
	sim.DropCalls(hotAt, 1<<20)
	_, _ = n.LearnAllCtx(context.Background())
	checkAdvisoryConsistent(t, n, docs, "faulted sweep")

	// The polls land — one per owner — and flag the term; every withdrawal
	// after them is lost, so each document's ban is rolled back and the term
	// stays indexed.
	sim.DropCallsAfter(hotAt, len(owners), 1<<20)
	before := sim.Stats().CallsByDest[hotAt]
	_, _ = n.LearnAllCtx(context.Background())
	if sent := sim.Stats().CallsByDest[hotAt] - before; sent <= int64(len(owners)) {
		t.Fatalf("withdrawals lost: %d calls to %s, so no withdrawal met the fault", sent, hotAt)
	}
	checkAdvisoryConsistent(t, n, docs, "withdrawals lost")
	for _, d := range docs {
		terms, _ := n.IndexedTerms(d.ID)
		if di, _ := n.DocIndexInfo(d.ID); len(di.Banned) != 0 || !slices.Contains(terms, "hot") {
			t.Fatalf("withdrawals lost: %s bans %v and indexes %v, want no ban and hot indexed", d.ID, di.Banned, terms)
		}
	}

	sim.DropCalls(hotAt, 0)
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("healthy LearnAll: %v", err)
	}
	checkAdvisoryConsistent(t, n, docs, "healthy sweep")
	checkHotRetired(t, n, docs, "after retry")
}

// checkHotRetired asserts that every document has retired "hot" and nothing
// else.
func checkHotRetired(t *testing.T, n *Network, docs []*corpus.Document, tag string) {
	t.Helper()
	for _, d := range docs {
		if di, _ := n.DocIndexInfo(d.ID); len(di.Banned) != 1 || di.Banned[0] != "hot" {
			t.Fatalf("%s: banned terms for %s = %v, want [hot]", tag, d.ID, di.Banned)
		}
	}
}
