package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// joinableNetwork builds a ring via the join protocol (so arc-change hooks
// fire exactly as in a live deployment) and shares one 4-term document.
func joinableNetwork(t *testing.T, cfg Config) (*Network, *chord.Ring) {
	t.Helper()
	net := simnet.New(3)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("m", 6); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := doc("d", map[string]int{"terma": 4, "termb": 3, "termc": 2, "termd": 1})
	if err := n.ShareCtx(context.Background(), "m0", d); err != nil {
		t.Fatal(err)
	}
	return n, ring
}

// findJoiner returns a node name whose ID would take over at least one of
// the shared document's term keys, or "" if the hash layout yields none.
func findJoiner(ring *chord.Ring) string {
	for i := 0; i < 200; i++ {
		cand := chordid.HashKey(nameFor(i))
		for _, term := range []string{"terma", "termb", "termc", "termd"} {
			key := chordid.HashKey(term)
			owner, _ := ring.Owner(key)
			if cand == key || cand.Between(key, owner.ID()) {
				return nameFor(i)
			}
		}
	}
	return ""
}

func TestJoinHandoffMigratesWithoutRefresh(t *testing.T) {
	n, ring := joinableNetwork(t, Config{InitialTerms: 4, Telemetry: telemetry.NewRegistry()})
	joinName := findJoiner(ring)
	if joinName == "" {
		t.Skip("no joiner candidate found (hash layout)")
	}
	joiner, err := ring.AddNode(joinName)
	if err != nil {
		t.Fatal(err)
	}
	// Adopt BEFORE joining: the peer must be able to accept handoffs the
	// moment its successor's arc-change hook fires during stabilization.
	n.Adopt(joiner)
	if err := joiner.Join(ring.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(200)
	ring.RepairFingers()

	// No owner acted, yet every term must already be findable: the
	// successor handed the joiner's arc over when it adopted it as pred.
	for _, term := range []string{"terma", "termb", "termc", "termd"} {
		rl, err := n.SearchCtx(context.Background(), "m1", []string{term}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rl) != 1 {
			t.Fatalf("term %q unfindable after join without a sweep", term)
		}
	}
	// The owner's holder-of-record followed the entries, so a learning sweep
	// finds every posting where it polls.
	if reanchored, rerouted := sweepReanchors(t, n); reanchored != 0 || rerouted != 0 {
		t.Fatalf("a sweep after join handoff re-anchored %d postings and re-routed %d items", reanchored, rerouted)
	}
	// And no primary entry sits outside its holder's arc.
	if st := n.Repair(); st.Moved != 0 {
		t.Fatalf("repair sweep moved %d entries on a converged ring", st.Moved)
	}
}

func TestLeaveHandsEntriesToSuccessor(t *testing.T) {
	n, ring := joinableNetwork(t, Config{InitialTerms: 4, Telemetry: telemetry.NewRegistry()})
	// Find a peer (not the owner m0) holding at least one primary entry.
	var leaver simnet.Addr
	for _, p := range n.Peers() {
		if p.Addr() == "m0" {
			continue
		}
		p.indexing.mu.Lock()
		held := p.indexing.ix.NumPostings()
		p.indexing.mu.Unlock()
		if held > 0 {
			leaver = p.Addr()
			break
		}
	}
	if leaver == "" {
		t.Skip("no non-owner peer holds entries (hash layout)")
	}
	rep, err := n.Leave(leaver)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Handoffs == 0 {
		t.Fatal("graceful leave handed off no entries")
	}
	if len(rep.Unrelocated) != 0 {
		t.Fatalf("leave on a healthy ring left %d owner records stale", len(rep.Unrelocated))
	}
	if _, ok := n.Peer(leaver); ok {
		t.Fatal("departed peer still registered with the network")
	}
	if ring.Size() != 5 {
		t.Fatalf("ring size after leave = %d, want 5", ring.Size())
	}
	ring.Stabilize(200)
	ring.RepairFingers()
	for _, term := range []string{"terma", "termb", "termc", "termd"} {
		rl, err := n.SearchCtx(context.Background(), "m0", []string{term}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rl) != 1 {
			t.Fatalf("term %q unfindable after graceful leave", term)
		}
	}
	if reanchored, _ := sweepReanchors(t, n); reanchored != 0 {
		t.Fatalf("a sweep re-anchored %d postings after graceful leave", reanchored)
	}
}

func TestLeaveUnsharesOwnedDocuments(t *testing.T) {
	n, _ := joinableNetwork(t, Config{InitialTerms: 4})
	rep, err := n.Leave("m0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Docs != 1 {
		t.Fatalf("leave unshared %d docs, want 1", rep.Docs)
	}
	if got := n.Documents(); len(got) != 0 {
		t.Fatalf("documents after owner left = %v, want none", got)
	}
	if got := n.TotalPostings(); got != 0 {
		t.Fatalf("postings after owner left = %d, want 0", got)
	}
}

func TestLeaveUnknownOrFailedPeer(t *testing.T) {
	n, ring := joinableNetwork(t, Config{InitialTerms: 2})
	if _, err := n.Leave("ghost"); err == nil {
		t.Fatal("leave of unknown peer succeeded")
	}
	ring.Fail(ring.Nodes()[3])
	if _, err := n.Leave(ring.Nodes()[3].Addr()); err == nil {
		t.Fatal("graceful leave of a failed peer succeeded")
	}
}

// TestLeaveOfReplicaHolderIsNeverCalledAgain: a replica holder leaves
// without telling the primaries it held copies for. Withdrawals never address
// a replica holder — a learning sweep's retirement of a hot term, then every
// document's unshare — and the next Repair forgets it by membership: no call
// is addressed to it, none fails, and neither an owner's stale ledger nor a
// primary's record of reconciled holders names it.
func TestLeaveOfReplicaHolderIsNeverCalledAgain(t *testing.T) {
	sim := simnet.New(5)
	ring := chord.NewRing(sim, chord.Config{})
	if _, err := ring.AddNodes("r", 8); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 4, HotTermDF: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	docs := []*corpus.Document{
		doc("d1", map[string]int{"hot": 9, "aa": 5, "bb": 3}),
		doc("d2", map[string]int{"hot": 9, "cc": 5, "dd": 3}),
		doc("d3", map[string]int{"hot": 9, "ee": 5, "ff": 3}),
	}
	for _, d := range docs {
		if err := n.ShareCtx(context.Background(), "r0", d); err != nil {
			t.Fatal(err)
		}
	}
	n.Repair()
	var leaver simnet.Addr
	for _, e := range n.ReplicaSnapshot() {
		if e.Term == "hot" && e.Posting.Doc == "d1" && e.Peer != "r0" {
			leaver = e.Peer
		}
	}
	if leaver == "" {
		t.Fatal("no replica holder of hot besides the owner")
	}
	if _, err := n.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	before := sim.Stats()
	check := func(tag string) {
		t.Helper()
		after := sim.Stats()
		if calls := after.CallsByDest[leaver] - before.CallsByDest[leaver]; calls != 0 {
			t.Errorf("%s: %d calls addressed to departed %s", tag, calls, leaver)
		}
		if after.Failed != before.Failed {
			t.Errorf("%s: %d calls failed", tag, after.Failed-before.Failed)
		}
		for _, d := range docs {
			if di, _ := n.DocIndexInfo(d.ID); len(di.Stale) != 0 {
				t.Errorf("%s: %s's stale ledger is %v", tag, d.ID, di.Stale)
			}
		}
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if di, _ := n.DocIndexInfo(d.ID); !slices.Contains(di.Banned, "hot") {
			t.Fatalf("the sweep did not retire hot from %s: banned %v", d.ID, di.Banned)
		}
	}
	check("hot retired")
	for _, d := range docs {
		if err := n.Unshare(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	check("unshared")
	ring.StabilizeLists(64)
	n.Repair()
	check("repaired")
	for _, p := range n.Peers() {
		p.indexing.mu.Lock()
		_, named := p.indexing.reconciled[leaver]
		p.indexing.mu.Unlock()
		if named {
			t.Errorf("%s still records departed %s as a replica holder", p.Addr(), leaver)
		}
	}
}

func TestRepairSweepFixesStrandedEntry(t *testing.T) {
	n, _ := joinableNetwork(t, Config{InitialTerms: 4})
	// Strand one primary entry on the wrong peer with a consistent owner
	// record (the sabotage used by the chaos mutation test).
	entries := n.PrimarySnapshot()
	victim := entries[0]
	var wrong simnet.Addr
	for _, p := range n.Peers() {
		if p.Addr() != victim.Peer {
			wrong = p.Addr()
		}
	}
	if !n.RelocatePrimaryEntry(victim.Peer, wrong, victim.Term, victim.Posting.Doc) {
		t.Fatal("sabotage failed to move the entry")
	}
	st := n.Repair()
	if st.Moved == 0 {
		t.Fatal("repair sweep moved nothing despite a stranded entry")
	}
	// The entry must be back at the ring owner of its term, with the owner
	// ledger in agreement.
	ownerNode, _ := n.ring.Owner(chordid.HashKey(victim.Term))
	for _, e := range n.PrimarySnapshot() {
		if e.Term == victim.Term && e.Posting.Doc == victim.Posting.Doc && e.Peer != ownerNode.Addr() {
			t.Fatalf("entry for %q still at %s, ring owner is %s", e.Term, e.Peer, ownerNode.Addr())
		}
	}
	di, _ := n.DocIndexInfo(victim.Posting.Doc)
	if got := di.PublishedAt[victim.Term]; got != ownerNode.Addr() {
		t.Fatalf("owner record for %q = %s, want %s", victim.Term, got, ownerNode.Addr())
	}
}

func TestAntiEntropyRestoresLostReplica(t *testing.T) {
	n, _ := joinableNetwork(t, Config{InitialTerms: 4, ReplicationFactor: 2})
	n.Repair()
	reps := n.ReplicaSnapshot()
	if len(reps) == 0 {
		t.Fatal("no replicas to lose")
	}
	victim := reps[0]
	if !n.DropReplicaEntry(victim.Peer, victim.Term, victim.Posting.Doc) {
		t.Fatal("replica drop failed")
	}
	st := n.Repair()
	if st.Reconciles == 0 {
		t.Fatal("no anti-entropy exchanges ran")
	}
	if st.Divergent == 0 {
		t.Fatal("anti-entropy saw no divergence despite a lost replica")
	}
	restored := false
	for _, e := range n.ReplicaSnapshot() {
		if e.Peer == victim.Peer && e.Term == victim.Term && e.Posting.Doc == victim.Posting.Doc {
			restored = true
		}
	}
	if !restored {
		t.Fatal("lost replica not restored by anti-entropy")
	}
	// A second sweep finds everything in sync.
	if st2 := n.Repair(); st2.Divergent != 0 {
		t.Fatalf("second sweep still divergent: %+v", st2)
	}
}

func TestRepairTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	net := simnet.New(3)
	ring := chord.NewRing(net, chord.Config{Telemetry: reg})
	if _, err := ring.AddNodes("m", 6); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 4, ReplicationFactor: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ShareCtx(context.Background(), "m0", doc("d", map[string]int{"terma": 4, "termb": 3, "termc": 2, "termd": 1})); err != nil {
		t.Fatal(err)
	}
	// Provoke a handoff (stranded entry) and replica divergence.
	entries := n.PrimarySnapshot()
	victim := entries[0]
	var wrong simnet.Addr
	for _, p := range n.Peers() {
		if p.Addr() != victim.Peer {
			wrong = p.Addr()
		}
	}
	n.RelocatePrimaryEntry(victim.Peer, wrong, victim.Term, victim.Posting.Doc)
	if reps := n.ReplicaSnapshot(); len(reps) > 0 {
		n.DropReplicaEntry(reps[0].Peer, reps[0].Term, reps[0].Posting.Doc)
	}
	n.Repair()

	snap := reg.Snapshot()
	for _, name := range []string{"sprite.repair.handoffs", "sprite.repair.reconciles", "sprite.repair.divergent_terms"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0 after a repair sweep with divergence", name)
		}
	}
	// The chord layer's successor-list depth gauge is exported alongside;
	// Build() wires state directly, so drive one stabilization round to let
	// the protocol path record it.
	ring.Stabilize(1)
	snap = reg.Snapshot()
	if depth := snap.Gauges["chord.successors.depth"]; depth <= 0 {
		t.Errorf("chord.successors.depth gauge = %d, want > 0", depth)
	}
}

// TestLeaveReportsOnlyInstalledEntries: when the departing peer's handoff
// install never reaches its successor, nothing moved — the entries are lost
// with the peer — so Leave reports no handoff and no entry as living at the
// successor under a stale owner record.
func TestLeaveReportsOnlyInstalledEntries(t *testing.T) {
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
	if err := n.ShareCtx(context.Background(), "m0", doc("d", map[string]int{"terma": 4, "termb": 3, "termc": 2, "termd": 1})); err != nil {
		t.Fatal(err)
	}
	var leaver *Peer
	for _, p := range n.Peers() {
		if p.Addr() != "m0" && p.Index().NumPostings() > 0 {
			leaver = p
			break
		}
	}
	if leaver == nil {
		t.Skip("no non-owner peer holds entries (hash layout)")
	}
	succ := leaver.node.SuccessorList()[0].Addr
	net.DropCalls(succ, 1) // the leaver owns nothing: its first call to succ is the install
	rep, err := n.Leave(leaver.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Handoffs != 0 || len(rep.Unrelocated) != 0 {
		t.Fatalf("leave whose install was dropped reports %d handoffs and unrelocated %v, want none", rep.Handoffs, rep.Unrelocated)
	}
	if succPeer, _ := n.Peer(succ); succPeer.Index().NumPostings() != 0 {
		t.Fatalf("successor %s holds %d postings after a dropped install", succ, succPeer.Index().NumPostings())
	}
}

// TestJoinHandoffRelocatesOncePerOwner: a join handoff of k entries whose
// documents have m < k distinct owners sends each owner one sprite.relocate
// carrying all of its entries — m messages — and the owners' records follow.
func TestJoinHandoffRelocatesOncePerOwner(t *testing.T) {
	f := newLearnFixture(t, 8, 4, 40, Config{Parallelism: 1})
	// The joiner takes over the keys between its ID and their current owner.
	var name string
	var moving []IndexEntry
	for i := 0; i < 200 && name == ""; i++ {
		cand := chordid.HashKey(nameFor(i))
		moving = moving[:0]
		owners := map[string]bool{}
		for _, e := range f.n.PrimarySnapshot() {
			key := chordid.HashKey(e.Term)
			if holder, _ := f.ring.Owner(key); cand == key || cand.Between(key, holder.ID()) {
				moving = append(moving, e)
				owners[e.Posting.Owner] = true
			}
		}
		if len(owners) > 1 && len(moving) > len(owners) {
			name = nameFor(i)
		}
	}
	if name == "" {
		t.Skip("no joiner candidate takes entries of several owners (hash layout)")
	}
	owners := map[string]bool{}
	for _, e := range moving {
		owners[e.Posting.Owner] = true
	}

	joiner, err := f.ring.AddNode(name)
	if err != nil {
		t.Fatal(err)
	}
	f.n.Adopt(joiner)
	f.log.drain()
	if err := joiner.Join(f.ring.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	f.ring.Stabilize(200)
	sent, _ := typeCounts(f.log.drain())
	if relocates := sent[msgRelocate] + sent[msgRelocate+"/self"]; relocates != len(owners) {
		t.Fatalf("handoff of %d entries with %d owners sent %d sprite.relocate (all sent: %v)", len(moving), len(owners), relocates, sent)
	}
	if sent[msgHandoff] != 1 {
		t.Fatalf("join sent %d sprite.repair.handoff, want 1 install and no revert", sent[msgHandoff])
	}
	for _, e := range moving {
		if di, _ := f.n.DocIndexInfo(e.Posting.Doc); di.PublishedAt[e.Term] != joiner.Addr() {
			t.Fatalf("owner records %q of %s at %s, want the joiner %s", e.Term, e.Posting.Doc, di.PublishedAt[e.Term], joiner.Addr())
		}
	}
}

// TestRepairAloneReplicates: with ReplicationFactor 2, sharing and a
// learning sweep send no sprite.replica and leave no copy anywhere; one
// Repair then leaves each primary's successors holding exactly its entries'
// copies, as one more does after unsharing.
func TestRepairAloneReplicates(t *testing.T) {
	f := newLearnFixture(t, 16, 4, 40, Config{Parallelism: 1, ReplicationFactor: 2})
	checkCopies := func(when string) {
		t.Helper()
		want := map[IndexEntry]bool{}
		for _, e := range f.n.PrimarySnapshot() {
			p, _ := f.n.Peer(e.Peer)
			for _, at := range p.replicaTargets() {
				want[IndexEntry{Peer: at, Term: e.Term, Posting: e.Posting}] = true
			}
		}
		got := f.n.ReplicaSnapshot()
		for _, e := range got {
			if !want[e] {
				t.Fatalf("%s: %s holds a replica of %q/%s that no predecessor indexes", when, e.Peer, e.Term, e.Posting.Doc)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d replicas held, want %d", when, len(got), len(want))
		}
	}
	f.queries(t, 150, false)
	if _, err := f.n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sent, _ := typeCounts(f.log.drain()); sent["sprite.replica"] != 0 {
		t.Fatalf("sharing and learning sent %d sprite.replica", sent["sprite.replica"])
	}
	if got := f.n.ReplicaSnapshot(); len(got) != 0 {
		t.Fatalf("%d replicas before any Repair", len(got))
	}
	f.n.Repair()
	checkCopies("after one Repair")

	for _, id := range f.n.Documents()[:4] {
		if err := f.n.Unshare(id); err != nil {
			t.Fatal(err)
		}
	}
	f.n.Repair()
	checkCopies("after unsharing and one Repair")
}

// TestWithdrawnReplicasLastUntilRepair: a withdrawn posting's replicas stay
// where the last Repair put them until the next Repair, which drops them
// with the terms no primary serves any more.
func TestWithdrawnReplicasLastUntilRepair(t *testing.T) {
	n, _ := joinableNetwork(t, Config{InitialTerms: 4, ReplicationFactor: 2})
	copies := func() int {
		c := 0
		for _, e := range n.ReplicaSnapshot() {
			if e.Posting.Doc == "d" {
				c++
			}
		}
		return c
	}
	n.Repair()
	if got := copies(); got != 4*2 {
		t.Fatalf("%d replicas of d's 4 terms after a Repair, want 8", got)
	}
	if err := n.Unshare("d"); err != nil {
		t.Fatal(err)
	}
	if got := copies(); got != 8 {
		t.Fatalf("%d replicas of d right after its unshare, want the 8 the Repair made", got)
	}
	if st := n.Repair(); st.Divergent == 0 {
		t.Fatalf("the Repair after an unshare found nothing to drop: %+v", st)
	}
	if got := copies(); got != 0 {
		t.Fatalf("%d replicas of unshared d survive a Repair", got)
	}
}

// TestRepairSpreadsAbsorbedArc: a primary fails and its successor absorbs
// its arc, serving the replicas it holds of it. A Repair spreads those copies
// to the successor's own replica holders instead of dropping them, and a
// search still finds every term the failed peer indexed.
func TestRepairSpreadsAbsorbedArc(t *testing.T) {
	n, ring := joinableNetwork(t, Config{InitialTerms: 4, ReplicationFactor: 2})
	n.Repair()
	var dead *Peer
	for _, p := range n.Peers() {
		if p.Addr() != "m0" && p.Index().NumPostings() > 0 {
			dead = p
			break
		}
	}
	if dead == nil {
		t.Skip("no non-owner peer holds entries (hash layout)")
	}
	lost := n.PrimarySnapshot()
	lost = slices.DeleteFunc(lost, func(e IndexEntry) bool { return e.Peer != dead.Addr() })
	ring.Fail(dead.node)
	ring.StabilizeLists(64)
	ring.RepairFingers()
	n.Repair()

	absorber, _ := n.Peer(dead.node.SuccessorList()[0].Addr)
	replica := map[IndexEntry]bool{}
	for _, e := range n.ReplicaSnapshot() {
		replica[e] = true
	}
	for _, e := range lost {
		for _, at := range absorber.replicaTargets() {
			if !replica[IndexEntry{Peer: at, Term: e.Term, Posting: e.Posting}] {
				t.Errorf("%s, holder of absorbing %s, lacks the dead arc's %q/%s", at, absorber.Addr(), e.Term, e.Posting.Doc)
			}
		}
		rl, err := n.SearchCtx(context.Background(), "m0", []string{e.Term}, 5)
		if err != nil || len(rl) != 1 {
			t.Errorf("search for %q after the Repair: %v, %v", e.Term, rl, err)
		}
	}
}

// TestJoinRetiresPushedOutReplicaHolder: a joiner landing between a primary and its
// first successor pushes the primary's second successor out of its replica
// set; the next Repair leaves that holder nothing of the primary's arc, and
// the joiner a copy of all of it.
func TestJoinRetiresPushedOutReplicaHolder(t *testing.T) {
	n, ring := joinableNetwork(t, Config{InitialTerms: 4, ReplicationFactor: 2})
	n.Repair()
	var primary *Peer
	var name string
	for _, p := range n.Peers() {
		if p.Index().NumPostings() == 0 {
			continue
		}
		succ := p.node.SuccessorList()[0].ID
		for i := 0; i < 200 && name == ""; i++ {
			if chordid.HashKey(nameFor(i)).Between(p.node.ID(), succ) {
				primary, name = p, nameFor(i)
			}
		}
		if name != "" {
			break
		}
	}
	if name == "" {
		t.Skip("no joiner candidate lands after a primary (hash layout)")
	}
	pushedOut := primary.node.SuccessorList()[1].Addr
	arc := chordid.OwnerArc(primary.node.Predecessor().ID, primary.node.ID())
	inArc := func(at simnet.Addr) (n int) {
		for _, e := range primary.net.ReplicaSnapshot() {
			if e.Peer == at && arc.ContainsKey(e.Term) {
				n++
			}
		}
		return n
	}
	if inArc(pushedOut) == 0 {
		t.Fatalf("%s holds nothing of %s's arc before the join", pushedOut, primary.Addr())
	}
	joiner, err := ring.AddNode(name)
	if err != nil {
		t.Fatal(err)
	}
	n.Adopt(joiner)
	if err := joiner.Join(ring.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(200)
	ring.RepairFingers()
	n.Repair()
	if got := inArc(pushedOut); got != 0 {
		t.Fatalf("%s, pushed out of %s's replica set by %s, still holds %d of its arc's lists", pushedOut, primary.Addr(), name, got)
	}
	if got, want := inArc(joiner.Addr()), primary.Index().NumPostings(); got != want {
		t.Fatalf("joiner %s holds %d copies of %s's arc, want %d", name, got, primary.Addr(), want)
	}
}

// unrouted is a logged request's payload without chord's routed-delivery
// envelope, if it has one.
func unrouted(payload any) any {
	if v := reflect.ValueOf(payload); v.Kind() == reflect.Struct {
		if inner := v.FieldByName("Payload"); inner.IsValid() && v.FieldByName("Key").IsValid() {
			return inner.Interface()
		}
	}
	return payload
}

// TestHandoffRefusedRelocationReverts: an owner whose record no longer names
// the sender refuses that entry's relocation, so the handoff reverts it at the
// target — one sprite.repair.handoff with Revert set — and the sender keeps
// it, while the owner's other entries in the same request move. Under force
// the refused entry stays at the target and is reported failed.
func TestHandoffRefusedRelocationReverts(t *testing.T) {
	f := newLearnFixture(t, 8, 4, 40, Config{Parallelism: 1})
	for _, force := range []bool{false, true} {
		// A sender holding three entries of one owner, and another peer.
		var from *Peer
		var entries []handoffEntry
		for _, p := range f.n.Peers() {
			entries = slices.DeleteFunc(p.primaryEntries(nil), func(e handoffEntry) bool { return e.Posting.Owner != "p1" })
			if from = p; len(entries) >= 3 {
				break
			}
		}
		if len(entries) < 3 {
			t.Fatal("no peer holds three entries of p1")
		}
		entries = entries[:3]
		target := from.node.SuccessorList()[0].Addr
		victim := entries[1]
		owner, _ := f.n.Peer("p1")
		st := owner.state(victim.Posting.Doc)
		st.mu.Lock()
		ot := st.terms[victim.Term]
		ot.at = "elsewhere"
		st.set(victim.Term, ot)
		st.mu.Unlock()

		f.log.drain()
		moved, failed := from.handoffEntries(target, entries, force)
		var reverts []handoffReq
		for _, m := range f.log.drain() {
			if req, ok := m.req.Payload.(handoffReq); ok && req.Revert {
				reverts = append(reverts, req)
			}
		}
		wantReverts, wantFailed := 1, 0
		if force {
			wantReverts, wantFailed = 0, 1
		}
		if moved != 2 || len(failed) != wantFailed || len(reverts) != wantReverts || !force && len(reverts[0].Entries) != 1 {
			t.Fatalf("force %v: moved %d, failed %v, reverts %+v; want 2 moved, %d failed, %d revert of %q", force, moved, failed, reverts, wantFailed, wantReverts, victim.Term)
		}
		held := func(at simnet.Addr, e handoffEntry) bool {
			p, _ := f.n.Peer(at)
			return p.Index().Contains(e.Term, e.Posting.Doc)
		}
		for _, e := range entries {
			stays := e.Term == victim.Term && !force
			if held(target, e) == stays || held(from.Addr(), e) != stays {
				t.Fatalf("force %v: %q of %s: target holds it %v, sender holds it %v", force, e.Term, e.Posting.Doc, held(target, e), held(from.Addr(), e))
			}
		}
		st.mu.Lock()
		ot.at = from.Addr() // where the revert left it
		st.set(victim.Term, ot)
		st.mu.Unlock()
	}
}
