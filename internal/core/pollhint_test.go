package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// typeLog is a network that keeps the type of every message in the order they
// were sent, a message a peer sent to itself as type/self. Under the
// sequential executor a route's chord.next_hop round trips directly precede
// the message they were spent on.
type typeLog struct {
	*simnet.Network
	mu    sync.Mutex
	types []string
}

func (l *typeLog) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	typ := msg.Type
	if from == to {
		typ += "/self"
	}
	l.mu.Lock()
	l.types = append(l.types, typ)
	l.mu.Unlock()
	return l.Network.CallCtx(ctx, from, to, msg)
}

func (l *typeLog) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return l.CallCtx(context.Background(), from, to, msg)
}

// drain empties the log and returns how many messages of each type it held
// and how many chord.next_hop round trips each type's routes took.
func (l *typeLog) drain() (sent, hops map[string]int) {
	sent, hops = map[string]int{}, map[string]int{}
	pending := 0
	for _, typ := range l.types {
		sent[typ]++
		if typ == "chord.next_hop" {
			pending++
			continue
		}
		hops[typ] += pending
		pending = 0
	}
	l.types = nil
	return sent, hops
}

// TestLearnPollsGoStraightToThePosting runs three learning iterations over a
// healthy 64-peer ring, fresh queries before each, and demands that no poll
// of another peer costs a routing round trip — the owner knows where it
// published; only a key of its own arc it still has to walk the ring for —
// and that every document's index terms after every iteration are those of a
// run whose polls walk the ring.
func TestLearnPollsGoStraightToThePosting(t *testing.T) {
	const peers, docs, iterations = 64, 40, 3
	type iteration struct {
		indexed     map[index.DocID][]string
		polls, hops int
	}
	run := func() []iteration {
		log := &typeLog{Network: simnet.New(1)}
		ring := chord.NewRing(log, chord.Config{})
		if _, err := ring.AddNodes("p", peers); err != nil {
			t.Fatal(err)
		}
		ring.Build()
		// Sequential, for the log's attribution of round trips.
		n, err := NewNetwork(ring, Config{InitialTerms: 3, TermsPerIteration: 2, MaxIndexTerms: 9, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		word := func() string { return fmt.Sprintf("w%d", rng.Intn(60)) }
		for i := 0; i < docs; i++ {
			tf := map[string]int{}
			for len(tf) < 14 {
				tf[word()] = 1 + rng.Intn(5)
			}
			if err := n.Share(simnet.Addr(fmt.Sprintf("p%d", i%peers)), doc(fmt.Sprintf("d%d", i), tf)); err != nil {
				t.Fatal(err)
			}
		}
		var out []iteration
		for it := 0; it < iterations; it++ {
			for q := 0; q < 150; q++ {
				if err := n.InsertQuery(simnet.Addr(fmt.Sprintf("p%d", rng.Intn(peers))), []string{word(), word(), word()}); err != nil {
					t.Fatal(err)
				}
			}
			want := 0
			for _, id := range n.Documents() {
				terms, _ := n.IndexedTerms(id)
				want += len(terms)
			}
			log.drain()
			if _, err := n.LearnAll(); err != nil {
				t.Fatal(err)
			}
			sent, hops := log.drain()
			if got := sent[msgPoll] + sent[msgPoll+"/self"]; got != want {
				t.Fatalf("iteration %d: %d polls for %d index terms", it+1, got, want)
			}
			res := iteration{indexed: map[index.DocID][]string{}, polls: sent[msgPoll], hops: hops[msgPoll]}
			for _, id := range n.Documents() {
				res.indexed[id], _ = n.IndexedTerms(id)
			}
			out = append(out, res)
		}
		return out
	}

	hinted := run()
	restore := unhintedPolls()
	walked := run()
	restore()
	for it := range hinted {
		if hinted[it].hops != 0 {
			t.Fatalf("iteration %d: %d polls took %d chord.next_hop round trips, want none", it+1, hinted[it].polls, hinted[it].hops)
		}
		if walked[it].hops == 0 {
			t.Fatalf("iteration %d: the oracle's %d polls took no chord.next_hop round trip — it is not walking the ring", it+1, walked[it].polls)
		}
		if !reflect.DeepEqual(hinted[it].indexed, walked[it].indexed) {
			t.Fatalf("iteration %d: index terms differ between hinted and walked polls:\n%v\nvs\n%v", it+1, hinted[it].indexed, walked[it].indexed)
		}
		if it > 0 && reflect.DeepEqual(hinted[it].indexed, hinted[it-1].indexed) {
			t.Fatalf("iteration %d learned nothing: the comparison is vacuous", it+1)
		}
	}
}

// TestPollWatermarkBelongsToItsPeer moves a term's arc to a joiner after the
// owner has polled the old indexing peer, records queries at the joiner —
// fewer than the old peer's watermark, so that number applied to the joiner's
// history would skip them all — and demands that the next iteration folds
// each of them exactly once and the one after it none, however the owner
// comes to poll the joiner: after a refresh migrated the posting, after the
// join's handoff relocated it, or with the posting still at the old peer and
// the ring alone delivering the poll.
func TestPollWatermarkBelongsToItsPeer(t *testing.T) {
	for _, mode := range []string{"refresh", "handoff", "ring"} {
		t.Run(mode, func(t *testing.T) {
			n, ring := joinableNetwork(t, Config{InitialTerms: 4})
			terms := []string{"terma", "termb", "termc", "termd"}
			for i := 0; i < 6; i++ {
				if err := n.InsertQuery("m1", terms); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := n.LearnDoc("d"); err != nil {
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
			if mode == "handoff" {
				n.Adopt(joiner) // before joining: the successor's arc-change hook hands over
			}
			if err := joiner.Join(ring.Nodes()[0]); err != nil {
				t.Fatal(err)
			}
			ring.Stabilize(200)
			ring.RepairFingers()
			n.Adopt(joiner)
			var moved string
			for _, term := range terms {
				if owner, _ := ring.Owner(chordid.HashKey(term)); owner == joiner {
					moved = term
					break
				}
			}
			owner, _ := n.peer("m0")
			st := owner.owned["d"]
			old := st.since[moved]
			if old.At == "" || old.At == joiner.Addr() || old.Since < 6 {
				t.Fatalf("watermark of %q before the move = %+v, want one of the old indexing peer's past 6", moved, old)
			}
			const fresh = 3
			for i := 0; i < fresh; i++ {
				if err := n.InsertQuery("m2", []string{moved}); err != nil {
					t.Fatal(err)
				}
			}
			newPeer, _ := n.peer(joiner.Addr())
			if got := newPeer.HistoryLen(); got != fresh {
				t.Fatalf("the joiner recorded %d queries, want %d", got, fresh)
			}
			if mode == "refresh" {
				if movedEntries, err := n.RefreshDoc("d"); err != nil || movedEntries == 0 {
					t.Fatalf("RefreshDoc = %d, %v; want the posting of %q migrated", movedEntries, err, moved)
				}
			}
			if at := st.publishedAt[moved]; (at == joiner.Addr()) != (mode != "ring") {
				t.Fatalf("mode %s: %q published at %s", mode, moved, at)
			}
			before := st.stats[moved].qf
			for round, want := range []int{fresh, 0} {
				if _, err := n.LearnDoc("d"); err != nil {
					t.Fatal(err)
				}
				if got := st.stats[moved].qf - before; got != want {
					t.Fatalf("learning round %d after the move folded %d queries of %q, want %d", round+1, got, moved, want)
				}
				before = st.stats[moved].qf
				if mark := st.since[moved]; mark != (pollMark{At: joiner.Addr(), Since: fresh}) {
					t.Fatalf("watermark of %q after round %d = %+v, want the joiner's %d", moved, round+1, mark, fresh)
				}
			}
		})
	}
}
