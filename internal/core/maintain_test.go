package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

func TestUnshareRemovesAllPostings(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 3})
	d := doc("d1", map[string]int{"aa": 3, "bb": 2, "cc": 1})
	if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
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
	if rl, _ := n.SearchCtx(context.Background(), "p1", []string{"aa"}, 5); len(rl) != 0 {
		t.Fatalf("unshared document still findable: %v", rl)
	}
	// The document can be shared again (fresh state).
	if err := n.ShareCtx(context.Background(), "p2", doc("d1", map[string]int{"aa": 1})); err != nil {
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
	n.ShareCtx(context.Background(), "p0", doc("a", map[string]int{"x": 1}))
	n.ShareCtx(context.Background(), "p1", doc("b", map[string]int{"y": 1}))
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
	n.ShareCtx(context.Background(), "p0", doc("d", map[string]int{"rep": 2, "lic": 1}))
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

// sweepReanchors runs one learning sweep and returns how many postings it
// re-anchored and how many items it re-routed; n needs a telemetry registry.
func sweepReanchors(t *testing.T, n *Network) (reanchored, rerouted int64) {
	t.Helper()
	reg := n.cfg.Telemetry
	if reg == nil {
		t.Fatal("sweepReanchors needs a telemetry registry")
	}
	a, r := reg.Counter("sprite.learn.reanchored").Value(), reg.Counter("sprite.learn.rerouted").Value()
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return reg.Counter("sprite.learn.reanchored").Value() - a, reg.Counter("sprite.learn.rerouted").Value() - r
}

// holdersOf lists the peers whose primary index holds doc's posting of term.
func holdersOf(n *Network, term string, doc index.DocID) []simnet.Addr {
	var out []simnet.Addr
	for _, e := range n.PrimarySnapshot() {
		if e.Term == term && e.Posting.Doc == doc {
			out = append(out, e.Peer)
		}
	}
	return out
}

// TestRefreshNoChurnMovesNothing: on a stable ring every poll finds its
// posting, so a learning sweep re-anchors nothing.
func TestRefreshNoChurnMovesNothing(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 3, Telemetry: telemetry.NewRegistry()})
	n.ShareCtx(context.Background(), "p0", doc("d", map[string]int{"qq": 3, "ww": 2, "ee": 1}))
	if reanchored, _ := sweepReanchors(t, n); reanchored != 0 {
		t.Fatalf("a sweep on a stable ring re-anchored %d postings", reanchored)
	}
}

// TestRefreshMigratesAfterJoin: a node joins and takes over part of the key
// space before it can accept a handoff, so the entries it now serves stay at
// their old holder. One learning sweep finds them missing at the joiner and
// leaves exactly one copy of each, there; the next sweep polls the joiner
// directly and finds everything in place.
func TestRefreshMigratesAfterJoin(t *testing.T) {
	net := simnet.New(3)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("m", 6); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 4, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	terms := []string{"terma", "termb", "termc", "termd"}
	if err := n.ShareCtx(context.Background(), "m0", doc("d", map[string]int{"terma": 4, "termb": 3, "termc": 2, "termd": 1})); err != nil {
		t.Fatal(err)
	}
	joinName := findJoiner(ring)
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
	// Attached only now: the successor's handoff during stabilization found
	// no one to take the entries.
	n.Adopt(joiner)
	var moved []string
	for _, term := range terms {
		if holder, _ := ring.Owner(chordid.HashKey(term)); holder == joiner {
			moved = append(moved, term)
			if got := holdersOf(n, term, "d"); len(got) != 1 || got[0] == joiner.Addr() {
				t.Fatalf("%q held at %v before the sweep, want only its old holder", term, got)
			}
		}
	}
	if len(moved) == 0 {
		t.Fatal("the joiner serves none of the document's terms")
	}

	if reanchored, _ := sweepReanchors(t, n); reanchored != int64(len(moved)) {
		t.Fatalf("the sweep re-anchored %d postings, want the joiner's %d", reanchored, len(moved))
	}
	for _, term := range moved {
		if got := holdersOf(n, term, "d"); len(got) != 1 || got[0] != joiner.Addr() {
			t.Fatalf("%q held at %v after the sweep, want only the joiner", term, got)
		}
	}
	for _, term := range terms {
		if rl, err := n.SearchCtx(context.Background(), "m1", []string{term}, 5); err != nil || len(rl) != 1 {
			t.Fatalf("term %q unfindable after the sweep: %v, %v", term, rl, err)
		}
	}
	if st := n.Repair(); st.Moved != 0 {
		t.Fatalf("repair moved %d entries the sweep left misplaced", st.Moved)
	}
	if reanchored, rerouted := sweepReanchors(t, n); reanchored != 0 || rerouted != 0 {
		t.Fatalf("the next sweep re-anchored %d postings and re-routed %d items, want none", reanchored, rerouted)
	}
}

func nameFor(i int) string {
	return "joiner" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// TestRefreshAfterRecoveryRestoresEntries: the unreplicated holder of a term
// crashes and its entry dies with it. Once the ring has stabilized around it,
// one learning sweep's poll reaches the key's new owner, which answers that
// the posting is missing; the owner re-publishes it there and queues the
// crashed holder for the withdrawal it could not deliver.
func TestRefreshAfterRecoveryRestoresEntries(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := testNetwork(t, 10, Config{InitialTerms: 2, Telemetry: reg})
	n.ShareCtx(context.Background(), "p0", doc("d", map[string]int{"alpha": 2, "beta": 1}))
	holder, _ := n.Ring().Owner(chordid.HashKey("alpha"))
	if holder.Addr() == "p0" {
		t.Skip("the owner indexes the term itself (hash layout)")
	}
	n.Ring().Fail(holder)
	n.Ring().StabilizeLists(64)
	n.Ring().RepairFingers()
	if rl, _ := n.SearchCtx(context.Background(), "p1", []string{"alpha"}, 5); len(rl) != 0 {
		t.Fatalf("entries on failed peer still served: %v", rl)
	}

	if reanchored, _ := sweepReanchors(t, n); reanchored != 1 {
		t.Fatalf("the sweep re-anchored %d postings, want alpha's 1", reanchored)
	}
	if rl, err := n.SearchCtx(context.Background(), "p1", []string{"alpha"}, 5); err != nil || len(rl) != 1 {
		t.Fatalf("alpha unfindable after the sweep: %v, %v", rl, err)
	}
	info, _ := n.DocIndexInfo("d")
	if got := info.Stale["alpha"]; len(got) != 1 || got[0] != holder.Addr() {
		t.Fatalf("stale withdrawals for alpha = %v, want the crashed holder %s", got, holder.Addr())
	}
	if at := info.PublishedAt["alpha"]; at == holder.Addr() {
		t.Fatalf("alpha still recorded at the crashed holder %s", at)
	}

	// The withdrawal was owed to the crashed holder and was not re-routed: its
	// copy is still there when it recovers, and one flush message takes it.
	sim := n.Ring().Net().(*simnet.Network)
	n.Ring().Recover(holder)
	if !n.peers[holder.Addr()].Index().Contains("alpha", "d") {
		t.Fatalf("the recovered holder %s lost its copy of alpha before the flush", holder.Addr())
	}
	sim.ResetStats()
	n.FlushStaleAll()
	if st := sim.Stats(); st.Calls != 1 || st.CallsByDest[holder.Addr()] != 1 {
		t.Fatalf("the flush sent %d messages, %d of them to %s; want the one withdrawal", st.Calls, st.CallsByDest[holder.Addr()], holder.Addr())
	}
	if n.peers[holder.Addr()].Index().Contains("alpha", "d") {
		t.Fatalf("the recovered holder %s still holds alpha after the flush", holder.Addr())
	}
	if info, _ := n.DocIndexInfo("d"); len(info.Stale) != 0 {
		t.Fatalf("stale withdrawals after the flush: %v", info.Stale)
	}
}

// TestUnshareSendsOncePerHolder: withdrawing a document sends each remote
// peer that holds one of its postings, or that its stale ledger owes a
// withdrawal, exactly one message, whatever the number of terms it holds; and
// a peer that leaves withdraws all of its documents in one message per holder
// across them.
func TestUnshareSendsOncePerHolder(t *testing.T) {
	log := &msgLog{Network: simnet.New(1)}
	ring := chord.NewRing(log, chord.Config{})
	if _, err := ring.AddNodes("p", 16); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 14, MaxIndexTerms: 14})
	if err != nil {
		t.Fatal(err)
	}
	words := func(d, count int) map[string]int {
		tf := map[string]int{}
		for i := 0; i < count; i++ {
			tf[fmt.Sprintf("w%02d", (d*5+i)%40)] = 1 + i%4
		}
		return tf
	}
	if err := n.ShareCtx(context.Background(), "p0", doc("solo", words(0, 14))); err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 3; d++ {
		if err := n.ShareCtx(context.Background(), "p5", doc(fmt.Sprintf("d%d", d), words(d, 10))); err != nil {
			t.Fatal(err)
		}
	}

	// remoteHolders is the set of peers other than owner that hold a posting
	// of one of docs, and how many postings they hold.
	remoteHolders := func(owner simnet.Addr, docs ...index.DocID) map[simnet.Addr]int {
		out := map[simnet.Addr]int{}
		for _, id := range docs {
			info, _ := n.DocIndexInfo(id)
			for _, at := range info.PublishedAt {
				if at != owner {
					out[at]++
				}
			}
		}
		return out
	}
	// sentTo counts the withdrawals from owner per peer.
	sentTo := func(owner simnet.Addr, msgs []sentMsg) map[simnet.Addr]int {
		out := map[simnet.Addr]int{}
		for _, m := range msgs {
			if m.from == owner && m.to != owner && (m.req.Type == msgPublish || m.req.Type == "sprite.unpublish") {
				out[m.to]++
			}
		}
		return out
	}

	want := remoteHolders("p0", "solo")
	postings := 0
	for _, c := range want {
		postings += c
	}
	if postings <= len(want) {
		t.Fatalf("solo's %d remote postings sit on %d peers: no peer holds two, the test shows nothing", postings, len(want))
	}
	// One stale-ledger entry, owed by a peer that holds none of solo's terms.
	var stale simnet.Addr
	for _, p := range n.Peers() {
		if _, holds := want[p.Addr()]; !holds && p.Addr() != "p0" {
			stale = p.Addr()
			break
		}
	}
	markStale(n.peers["p0"].state("solo"), "w00", stale)
	want[stale]++

	log.drain()
	if err := n.Unshare("solo"); err != nil {
		t.Fatal(err)
	}
	got := sentTo("p0", log.drain())
	if len(got) != len(want) {
		t.Fatalf("unshare sent to %v, want one message to each of %v", got, want)
	}
	for at := range want {
		if got[at] != 1 {
			t.Fatalf("unshare sent %d messages to %s, want 1 (all sent: %v)", got[at], at, got)
		}
	}

	want = remoteHolders("p5", "d1", "d2", "d3")
	log.drain()
	if _, err := n.Leave("p5"); err != nil {
		t.Fatal(err)
	}
	got = sentTo("p5", log.drain())
	if len(got) != len(want) {
		t.Fatalf("leave withdrew from %v, want one message to each of %v", got, want)
	}
	for at, c := range want {
		if got[at] != 1 {
			t.Fatalf("leave sent %d withdrawals to %s, which holds %d postings: want 1", got[at], at, c)
		}
	}
	if left := n.TotalPostings(); left != 0 {
		t.Fatalf("%d postings left after every document was withdrawn", left)
	}
}
