package core

import (
	"context"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
)

func TestUnshareRemovesAllPostings(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 3})
	d := doc("d1", map[string]int{"aa": 3, "bb": 2, "cc": 1})
	if err := n.Share("p0", d); err != nil {
		t.Fatal(err)
	}
	if n.TotalPostings() != 3 {
		t.Fatalf("postings = %d", n.TotalPostings())
	}
	if err := n.Unshare("d1"); err != nil {
		t.Fatalf("Unshare: %v", err)
	}
	if got := n.TotalPostings(); got != 0 {
		t.Fatalf("postings after unshare = %d, want 0", got)
	}
	if _, err := n.IndexedTerms("d1"); err == nil {
		t.Fatal("unshared document still known")
	}
	if rl, _ := n.Search("p1", []string{"aa"}, 5); len(rl) != 0 {
		t.Fatalf("unshared document still findable: %v", rl)
	}
	// The document can be shared again (fresh state).
	if err := n.Share("p2", doc("d1", map[string]int{"aa": 1})); err != nil {
		t.Fatalf("re-share after unshare: %v", err)
	}
}

func TestUnshareUnknownDoc(t *testing.T) {
	n := testNetwork(t, 4, Config{})
	if err := n.Unshare("ghost"); err == nil {
		t.Fatal("unsharing unknown doc succeeded")
	}
}

func TestUnshareRemovesFromLearningSweep(t *testing.T) {
	n := testNetwork(t, 6, Config{InitialTerms: 1})
	n.Share("p0", doc("a", map[string]int{"x": 1}))
	n.Share("p1", doc("b", map[string]int{"y": 1}))
	if err := n.Unshare("a"); err != nil {
		t.Fatal(err)
	}
	if got := n.Documents(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Documents = %v", got)
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("LearnAll after unshare: %v", err)
	}
}

func TestUnshareWithReplication(t *testing.T) {
	n := testNetwork(t, 10, Config{InitialTerms: 2, ReplicationFactor: 2})
	n.Share("p0", doc("d", map[string]int{"rep": 2, "lic": 1}))
	if err := n.Unshare("d"); err != nil {
		t.Fatal(err)
	}
	// Replicas must be dropped too: no peer may still serve the term.
	for _, p := range n.Peers() {
		resp := p.indexing.postings("rep")
		if resp.IndexedDF != 0 {
			t.Fatalf("peer %s still serves replicated postings after unshare", p.Addr())
		}
	}
}

func TestRefreshNoChurnMovesNothing(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 3})
	n.Share("p0", doc("d", map[string]int{"qq": 3, "ww": 2, "ee": 1}))
	moved, err := n.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("refresh on a stable ring moved %d entries", moved)
	}
}

func TestRefreshMigratesAfterJoin(t *testing.T) {
	// A new node joins and takes over part of the key space; entries it now
	// owns are unfindable until the owner refreshes.
	net := simnet.New(3)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("m", 6); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := doc("d", map[string]int{"terma": 4, "termb": 3, "termc": 2, "termd": 1})
	if err := n.Share("m0", d); err != nil {
		t.Fatal(err)
	}

	// Find a joiner name that would own at least one of the doc's terms.
	joinName := ""
	for i := 0; i < 200 && joinName == ""; i++ {
		cand := chordid.HashKey(nameFor(i))
		for _, term := range []string{"terma", "termb", "termc", "termd"} {
			key := chordid.HashKey(term)
			owner, _ := ring.Owner(key)
			// The candidate becomes the key's owner iff it lies on the
			// clockwise arc [key, currentOwner).
			if cand.BetweenLeftIncl(key, owner.ID()) {
				joinName = nameFor(i)
				break
			}
		}
	}
	if joinName == "" {
		t.Skip("no joiner candidate found (hash layout)")
	}

	joiner, err := ring.AddNode(joinName)
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Join(ring.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(200)
	ring.RepairFingers()
	// Attach SPRITE state to the new node so it can serve app messages.
	n.Adopt(joiner)

	moved, err := n.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("refresh after join moved nothing")
	}
	// Every term must be findable again.
	for _, term := range []string{"terma", "termb", "termc", "termd"} {
		rl, err := n.Search("m1", []string{term}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rl) != 1 {
			t.Fatalf("term %q unfindable after refresh", term)
		}
	}
}

func nameFor(i int) string {
	return "joiner" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestRefreshUnknownDoc(t *testing.T) {
	n := testNetwork(t, 4, Config{})
	if _, err := n.RefreshDoc("ghost"); err == nil {
		t.Fatal("refreshing unknown doc succeeded")
	}
}

func TestRefreshAfterRecoveryRestoresEntries(t *testing.T) {
	// An indexing peer fails; its entries are lost (no replication). When a
	// key moves to the failover peer, refresh republished the entries there.
	n := testNetwork(t, 10, Config{InitialTerms: 2})
	n.Share("p0", doc("d", map[string]int{"alpha": 2, "beta": 1}))

	// Fail the peer holding "alpha".
	key := chordid.HashKey("alpha")
	owner, _ := n.Ring().Owner(key)
	n.Ring().Fail(owner)

	if rl, _ := n.Search("p1", []string{"alpha"}, 5); len(rl) != 0 {
		t.Fatalf("entries on failed peer still served: %v", rl)
	}
	moved, err := n.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("refresh did not migrate entries off the failed peer")
	}
	rl, err := n.Search("p1", []string{"alpha"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 {
		t.Fatal("entries not restored on the failover peer")
	}
}
