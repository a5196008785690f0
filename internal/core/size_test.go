package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// TestSizeIsEncodedLength: every message a deployment exchanges, chord's
// included, costs exactly its payload's encoded length without the 2-byte
// kind, and a message without a payload costs nothing. The scenario reaches
// every shape the protocols send: joins half stabilized (refused items,
// re-routed ones, hinted hop answers, envelopes and their refusals), searches,
// an expanded one, two learning sweeps, a lookup with exclusions, a Leave,
// both handoff reverts, a Repair that pushes a lost replica back and a Leave
// whose holders drop its arc's copies.
func TestSizeIsEncodedLength(t *testing.T) {
	f := newLearnFixture(t, 16, 4, 40, Config{Parallelism: 1, ReplicationFactor: 2})
	ctx := context.Background()
	f.halfJoin(t)
	f.searchStream(t, 150, func(p *Peer, terms []string) (ir.RankedList, error) {
		return p.searchCtx(ctx, terms, 10, true, nil)
	})
	if _, _, err := f.n.SearchExpanded("p3", []string{"w1", "w2"}, 10, ExpandOptions{}); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 2; it++ {
		f.queries(t, 150, false)
		if _, err := f.n.LearnAllCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	p0, _ := f.n.Peer("p0")
	var exclude []chordid.ID
	for _, p := range f.n.Peers()[4:8] {
		exclude = append(exclude, p.node.ID())
	}
	if _, _, err := p0.node.LookupExcluding(ctx, chordid.HashKey("w1"), exclude, nil); err != nil {
		t.Fatal(err)
	}

	// An owner leaving withdraws its documents' postings in batches and its
	// indexing role relocates its entries at their owners in batches; its
	// replica role sends nothing.
	if _, err := f.n.Leave("p0"); err != nil {
		t.Fatal(err)
	}
	// Handoffs whose owner cannot be told revert their installs: one entry,
	// then all of the owner's entries at a peer.
	var from *Peer
	var entries []handoffEntry
	for _, p := range f.n.Peers() {
		entries = slices.DeleteFunc(p.primaryEntries(nil), func(e handoffEntry) bool { return e.Posting.Owner != "p2" })
		if from = p; p.Addr() != "p2" && len(entries) > 1 {
			break
		}
	}
	target := from.node.SuccessorList()[0].Addr
	for _, es := range [][]handoffEntry{entries[:1], entries} {
		f.log.DropCalls("p2", 1)
		if moved, _ := from.handoffEntries(target, es, false); moved != 0 {
			t.Fatalf("handoff to %s moved %d entries of an unreachable owner", target, moved)
		}
	}

	// A replica lost without a trace is pushed back by anti-entropy.
	f.ring.Stabilize(3)
	f.n.Repair()
	reps := f.n.ReplicaSnapshot()
	if len(reps) == 0 || !f.n.DropReplicaEntry(reps[0].Peer, reps[0].Term, reps[0].Posting.Doc) {
		t.Fatal("no replica to lose")
	}
	if st := f.n.Repair(); st.Divergent == 0 {
		t.Fatalf("anti-entropy saw no divergence despite a lost replica: %+v", st)
	}
	// A peer that leaves retires its holders: each push drops its terms.
	if _, err := f.n.Leave(f.n.Peers()[1].Addr()); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	for _, m := range f.log.drain() {
		for _, msg := range []simnet.Message{m.req, m.reply} {
			want := encodedSize(t, msg)
			what := sizeCase(msg.Payload)
			if msg.Size != want {
				t.Fatalf("%s (%s): Size %d, %d bytes encoded", msg.Type, what, msg.Size, want)
			}
			seen[what]++
		}
	}
	for _, what := range []string{
		"no payload",
		"next_hop request, none excluded", "next_hop request, several excluded",
		"next_hop answer", "next_hop answer with a hint",
		"chord.routed", "chord.notOwner", "chord.stateResp", "chord.Ref",
		"get_postings request of one", "get_postings request of several",
		"get_postings reply of one, none refused", "get_postings reply of several, none refused",
		"get_postings reply of several, one refused",
		"core.cacheQueryReq", "core.docTermsReq", "core.docTermsResp",
		"poll of one", "poll of several", "poll reply of several", "poll reply refusing",
		"publish of one", "publish of several", "withdrawal of one", "withdrawal of several",
		"publish reply", "publish reply refusing",
		"relocate of one", "relocate of several",
		"handoff of several", "core.handoffResp", "revert of one", "revert of several",
		"core.repairDigestReq", "core.repairDigestResp", "repair push", "repair push dropping",
	} {
		if seen[what] == 0 {
			t.Errorf("no %s was exchanged", what)
		}
	}
	if t.Failed() {
		t.Logf("seen: %v", seen)
	}

	// A reply carrying a list of several blocks is sized exactly, and like
	// every payload without allocating.
	ix := index.NewInverted()
	for i := 0; i < 700; i++ {
		ix.Add("w1", index.Posting{Doc: index.DocID(fmt.Sprintf("d%04d", i)), Owner: "p1", Freq: 1 + i%5, DocLen: 40})
	}
	list := ix.Encoded("w1")
	if list.NumBlocks() < 2 {
		t.Fatalf("700 postings fill %d block", list.NumBlocks())
	}
	for _, payload := range []any{
		getPostingsResp{Items: []postingsList{{Postings: list, IndexedDF: 700}, {Refused: true}, {Postings: list, FromReplica: true}}},
		getPostingsReq{Terms: []string{"w1", "w2"}, Query: []string{"w1", "w2", "w3"}, Record: true},
	} {
		msg := simnet.Message{Payload: payload}
		if got, want := wire.Size(payload), encodedSize(t, msg); got != want {
			t.Fatalf("%s: Size %d, %d bytes encoded", sizeCase(payload), got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { wire.Size(payload) }); allocs != 0 {
			t.Fatalf("%s: Size allocates %v times", sizeCase(payload), allocs)
		}
	}
}

// TestPollReplyCountsIssuances: a poll reply carries an elected query once,
// whatever its issuance count. One peer records a query once and another 300
// times; their answers to the same poll differ by at most 2 bytes — the
// count's varint and NewSince's — and the owner whose sweep polls the second
// reads QF 300 for the query's term.
func TestPollReplyCountsIssuances(t *testing.T) {
	ctx := context.Background()
	n := testNetwork(t, 8, Config{})
	if err := n.ShareCtx(ctx, "p0", doc("D", map[string]int{"aaa": 3})); err != nil {
		t.Fatal(err)
	}
	owner, _ := n.Owner("D")
	st := owner.owned["D"]
	holder, ok := n.Peer(st.terms["aaa"].at)
	if !ok {
		t.Fatalf("aaa's holder of record %q is not a peer", st.terms["aaa"].at)
	}
	other := n.Peers()[0]
	if other == holder {
		other = n.Peers()[1]
	}
	query := []string{"aaa"}
	other.indexing.cacheQuery(query)
	for range 300 {
		holder.indexing.cacheQuery(query)
	}

	docTerms := st.indexedTerms()
	once := pollResp{Items: []pollResult{other.indexing.poll("aaa", "D", docTerms, 0, nil)}}
	many := pollResp{Items: []pollResult{holder.indexing.poll("aaa", "D", docTerms, 0, nil)}}
	if a, b := wire.Size(once), wire.Size(many); b-a > 2 {
		t.Fatalf("poll reply of 300 issuances is %d bytes, of one %d: want at most 2 more", b, a)
	}
	if got, want := many.Items[0].Queries, []polledQuery{{Terms: query, Copies: 300}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("poll of 300 issuances answers %v, want %v", got, want)
	}

	if _, err := n.LearnDocCtx(ctx, "D"); err != nil {
		t.Fatal(err)
	}
	if got := st.terms["aaa"].qf; got != 300 {
		t.Fatalf("QF of aaa after a sweep = %d, want 300", got)
	}
}

// encodedSize is what msg must cost: its payload's encoded length without the
// 2-byte kind, or nothing when it carries no payload.
func encodedSize(t *testing.T, msg simnet.Message) int {
	t.Helper()
	if msg.Payload == nil {
		return 0
	}
	enc, ok := wire.AppendBinary(nil, msg.Payload)
	if !ok {
		t.Fatalf("%s carries %T, which has no binary codec", msg.Type, msg.Payload)
	}
	return len(enc) - 2
}

// sizeCase names the shape of a payload the size check must meet.
func sizeCase(payload any) string {
	switch p := payload.(type) {
	case nil:
		return "no payload"
	case getPostingsReq:
		return "get_postings request of " + count(len(p.Terms))
	case getPostingsResp:
		refused := 0
		for _, it := range p.Items {
			if it.Refused {
				refused++
			}
		}
		return fmt.Sprintf("get_postings reply of %s, %s refused", count(len(p.Items)), count(refused))
	case pollReq:
		items := 0
		for _, d := range p.Docs {
			items += len(d.Terms)
		}
		return "poll of " + count(items)
	case pollResp:
		for _, it := range p.Items {
			if it.Refused {
				return "poll reply refusing"
			}
		}
		return "poll reply of " + count(len(p.Items))
	case publishReq:
		if withdraws(simnet.Message{Payload: p}) {
			return "withdrawal of " + count(len(p.Items))
		}
		return "publish of " + count(len(p.Items))
	case publishResp:
		if len(p.Answers) > 0 {
			return "publish reply refusing"
		}
		return "publish reply"
	case relocateReq:
		return "relocate of " + count(len(p.Items))
	case handoffReq:
		if p.Revert {
			return "revert of " + count(len(p.Entries))
		}
		return "handoff of " + count(len(p.Entries))
	case repairPushReq:
		for _, tp := range p.Set {
			if tp.Postings.Len() == 0 {
				return "repair push dropping"
			}
		}
		return "repair push"
	}
	// chord's payloads, seen from outside their package.
	v := reflect.ValueOf(payload)
	switch name := fmt.Sprintf("%T", payload); name {
	case "chord.nextHopReq":
		return "next_hop request, " + count(v.FieldByName("Exclude").Len()) + " excluded"
	case "chord.nextHopResp":
		if !v.FieldByName("Hint").IsZero() {
			return "next_hop answer with a hint"
		}
		return "next_hop answer"
	default:
		return name
	}
}

// count names a count the way the size check groups them.
func count(n int) string {
	switch n {
	case 0:
		return "none"
	case 1:
		return "one"
	}
	return "several"
}
