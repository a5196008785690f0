package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
)

// A peer's own arc, (predecessor, peer], is served by the peer itself: a
// message keyed there — a query's fetch, a sweep's poll, a first publish —
// goes to the peer's own handler without walking the ring, under the same arc
// check a remote holder applies to a batch.

// termsIn returns count terms named prefix0, prefix1, … whose keys in holds.
func termsIn(prefix string, count int, in func(chordid.ID) bool) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		if term := fmt.Sprintf("%s%d", prefix, i); in(chordid.HashKey(term)) {
			out = append(out, term)
		}
	}
	return out
}

// TestSearchOwnArcTermSendsNoNextHop searches, from a peer, terms of its own
// arc beside a term its node names the holder of, and demands no
// chord.next_hop round trip and the ranking the same query gets from another
// peer and from the slice oracle.
func TestSearchOwnArcTermSendsNoNextHop(t *testing.T) {
	n, sim := cacheTestNetwork(t, 16, Config{InitialTerms: 8})
	searcher, _ := n.Peer("p3")
	other, _ := n.Peer("p11")
	own := termsIn("own", 2, searcher.Node().Serves)
	remote := termsIn("far", 1, func(key chordid.ID) bool {
		at := searcher.Node().LocalOwner(key)
		return !at.IsZero() && at.Addr != searcher.Addr() && at.Addr != other.Addr()
	})
	vocab := append(append(own, remote...), "x0", "x1", "x2")
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < 30; d++ {
		tf := map[string]int{}
		for len(tf) < 4 {
			tf[vocab[rng.Intn(len(vocab))]] = 1 + rng.Intn(6)
		}
		if err := n.ShareCtx(context.Background(), n.Peers()[d%16].Addr(), doc(fmt.Sprintf("d%02d", d), tf)); err != nil {
			t.Fatal(err)
		}
	}
	q := []string{own[0], remote[0], own[1]}
	want := sliceOracle(t, n, q, 10, nil)
	if len(want) == 0 {
		t.Fatal("the query matches nothing: the comparison is vacuous")
	}
	hops := sim.Stats().CallsByType["chord.next_hop"]
	got, err := n.SearchCtx(context.Background(), searcher.Addr(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if spent := sim.Stats().CallsByType["chord.next_hop"] - hops; spent != 0 {
		t.Fatalf("a query with terms in %s's own arc took %d chord.next_hop round trips, want 0", searcher.Addr(), spent)
	}
	if err := sameBits(got, want); err != nil {
		t.Fatalf("query from %s: %v", searcher.Addr(), err)
	}
	fromOther, err := n.SearchCtx(context.Background(), other.Addr(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(got, fromOther); err != nil {
		t.Fatalf("query from %s against the same from %s: %v", searcher.Addr(), other.Addr(), err)
	}
}

// TestSweepPollsOwnPostingWithoutMessages shares a document whose every term
// lies in its owner's own arc, so that the owner holds each posting itself,
// and demands that a learning sweep — polls and the publish of a newly learned
// term — sends no message at all, while learning what the queries taught.
func TestSweepPollsOwnPostingWithoutMessages(t *testing.T) {
	n, sim := cacheTestNetwork(t, 16, Config{InitialTerms: 2, TermsPerIteration: 1, MaxIndexTerms: 3})
	owner, _ := n.Peer("p5")
	terms := termsIn("mine", 4, owner.Node().Serves)
	if err := n.ShareCtx(context.Background(), owner.Addr(), doc("d", map[string]int{terms[0]: 9, terms[1]: 7, terms[2]: 3, terms[3]: 1})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := n.InsertQueryCtx(context.Background(), n.Peers()[i].Addr(), []string{terms[0], terms[3]}); err != nil {
			t.Fatal(err)
		}
	}
	sim.ResetStats()
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := sim.Stats(); st.Calls != 0 {
		t.Fatalf("a sweep over postings the owner holds itself sent %d messages: %v", st.Calls, st.CallsByType)
	}
	v := n.docViews()["d"]
	if v[terms[0]].qf == 0 || v[terms[3]].at != owner.Addr() {
		t.Fatalf("after the sweep %s has QF %d and %s is published at %q; want queries counted and the owner", terms[0], v[terms[0]].qf, terms[3], v[terms[3]].at)
	}
}

// TestSearchOldOwnerArcDuringJoin joins a peer and, before its successor has
// heard of it, searches from that successor — the arc's old owner, whose
// predecessor is now stale — terms of the joiner's new arc. The old owner
// still serves them itself, with no chord.next_hop, and the ranking is the
// slice oracle's (the chaos invariant's recipe) from before the join; once
// the ring has stabilized and the entries have moved to the joiner it is
// still that ranking.
func TestSearchOldOwnerArcDuringJoin(t *testing.T) {
	n, sim := cacheTestNetwork(t, 16, Config{InitialTerms: 6})
	ring := n.Ring()
	jID := chordid.HashKey("j0")
	succNode, _ := ring.Owner(jID)
	succ, _ := n.Peer(succNode.Addr())
	pred := succ.Node().Predecessor()
	moving := termsIn("new", 2, func(key chordid.ID) bool { return key.BetweenRightIncl(pred.ID, jID) })
	staying := termsIn("old", 1, func(key chordid.ID) bool { return key.BetweenRightIncl(jID, succ.Node().ID()) })
	vocab := append(append(moving, staying...), "x0", "x1")
	rng := rand.New(rand.NewSource(3))
	for d := 0; d < 30; d++ {
		tf := map[string]int{}
		for len(tf) < 3 {
			tf[vocab[rng.Intn(len(vocab))]] = 1 + rng.Intn(6)
		}
		if err := n.ShareCtx(context.Background(), n.Peers()[d%16].Addr(), doc(fmt.Sprintf("d%02d", d), tf)); err != nil {
			t.Fatal(err)
		}
	}
	q := []string{moving[0], staying[0], moving[1]}
	want := sliceOracle(t, n, q, 10, nil)
	if len(want) == 0 {
		t.Fatal("the query matches nothing: the comparison is vacuous")
	}

	j, err := ring.AddNode("j0")
	if err != nil {
		t.Fatal(err)
	}
	n.Adopt(j)
	if err := j.Join(succ.Node()); err != nil {
		t.Fatal(err)
	}
	if p := succ.Node().Predecessor(); p != pred || j.Successor() != succ.Node().Ref() {
		t.Fatalf("after the join %s's predecessor is %s and the joiner's successor %s; want the stale %s and %s", succ.Addr(), p, j.Successor(), pred, succ.Addr())
	}
	search := func(stage string, from simnet.Addr, noHops bool) {
		t.Helper()
		hops := sim.Stats().CallsByType["chord.next_hop"]
		got, err := n.SearchCtx(context.Background(), from, q, 10)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if spent := sim.Stats().CallsByType["chord.next_hop"] - hops; noHops && spent != 0 {
			t.Fatalf("%s: %d chord.next_hop round trips, want 0", stage, spent)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	search("old owner, stale predecessor", succ.Addr(), true)
	search("another peer, stale ring", "p0", false)

	ring.Stabilize(100)
	ring.RepairFingers()
	if p := succ.Node().Predecessor(); p != j.Ref() {
		t.Fatalf("after stabilizing %s's predecessor is %s, want the joiner", succ.Addr(), p)
	}
	for _, term := range moving {
		if ps, _, _ := n.ServedPostings(j.Addr(), term); len(ps) == 0 {
			t.Fatalf("%s did not move to the joiner", term)
		}
	}
	search("old owner, stabilized", succ.Addr(), false)
}

// TestWithdrawalStaysAtOwnArcHolder: an owner that holds a posting of its own
// arc keeps it when a node joins and takes the key over before it can accept
// a handoff. Unsharing the document then withdraws the posting from the owner
// — the holder its record names — and sends the key's new server nothing.
func TestWithdrawalStaysAtOwnArcHolder(t *testing.T) {
	log := &msgLog{Network: simnet.New(1)}
	ring := chord.NewRing(log, chord.Config{})
	if _, err := ring.AddNodes("p", 16); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 3})
	if err != nil {
		t.Fatal(err)
	}
	jID := chordid.HashKey("j0")
	ownerNode, _ := ring.Owner(jID)
	owner := ownerNode.Addr()
	pred := ownerNode.Predecessor()
	mine := termsIn("mine", 1, func(key chordid.ID) bool { return key.BetweenRightIncl(pred.ID, jID) })[0]
	if err := n.ShareCtx(context.Background(), owner, doc("d", map[string]int{mine: 3, "x0": 2, "x1": 1})); err != nil {
		t.Fatal(err)
	}
	if info, _ := n.DocIndexInfo("d"); info.PublishedAt[mine] != owner {
		t.Fatalf("%q recorded at %s, want its owner %s", mine, info.PublishedAt[mine], owner)
	}

	j, err := ring.AddNode("j0")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Join(ownerNode); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(100)
	ring.RepairFingers()
	n.Adopt(j) // only now: the owner's handoff found no one to take the entry
	if server, _ := ring.Owner(chordid.HashKey(mine)); server != j {
		t.Fatalf("%q is served by %s after the join, want the joiner", mine, server.Addr())
	}
	if got := holdersOf(n, mine, "d"); len(got) != 1 || got[0] != owner {
		t.Fatalf("%q held at %v after the join, want only %s", mine, got, owner)
	}

	log.drain()
	if err := n.Unshare("d"); err != nil {
		t.Fatal(err)
	}
	for _, m := range log.drain() {
		if m.to == j.Addr() {
			t.Fatalf("%s sent %s to the joiner, which holds nothing of d", m.from, m.req.Type)
		}
	}
	if got := holdersOf(n, mine, "d"); len(got) != 0 {
		t.Fatalf("%q still held at %v after the unshare", mine, got)
	}
}
