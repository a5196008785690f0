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
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/wire"
)

// sentMsg is one call a msgLog saw: the request, and the reply if it came.
type sentMsg struct {
	from, to   simnet.Addr
	req, reply simnet.Message
}

// msgLog is a network that keeps every call in the order it was made. Under
// the sequential executor a route's chord.next_hop round trips directly
// precede the message they were spent on.
type msgLog struct {
	*simnet.Network
	mu   sync.Mutex
	msgs []sentMsg
}

func (l *msgLog) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	reply, err := l.Network.CallCtx(ctx, from, to, msg)
	l.mu.Lock()
	l.msgs = append(l.msgs, sentMsg{from, to, msg, reply})
	l.mu.Unlock()
	return reply, err
}

func (l *msgLog) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return l.CallCtx(context.Background(), from, to, msg)
}

// drain empties the log and returns what it held.
func (l *msgLog) drain() []sentMsg {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.msgs
	l.msgs = nil
	return out
}

// typeCounts counts messages per type, a message a peer sent to itself as
// type/self, and the chord.next_hop round trips each type's routes took —
// attributed to the message they precede, which holds under the sequential
// executor (round trips are logged when they return, before the delivery).
func typeCounts(msgs []sentMsg) (sent, hops map[string]int) {
	sent, hops = map[string]int{}, map[string]int{}
	pending := 0
	for _, m := range msgs {
		typ := m.req.Type
		if m.from == m.to {
			typ += "/self"
		}
		sent[typ]++
		if typ == "chord.next_hop" {
			pending++
			continue
		}
		hops[typ] += pending
		pending = 0
	}
	return sent, hops
}

// learnFixture is a ring of peers with documents over a 60-word vocabulary,
// shared by the first `owners` peers in turn, so that every owner has several
// documents whose terms share indexing peers.
type learnFixture struct {
	n    *Network
	ring *chord.Ring
	log  *msgLog
	reg  *telemetry.Registry
	rng  *rand.Rand
}

func newLearnFixture(t *testing.T, peers, owners, docs int, cfg Config) *learnFixture {
	t.Helper()
	f := &learnFixture{log: &msgLog{Network: simnet.New(1)}, reg: telemetry.NewRegistry(), rng: rand.New(rand.NewSource(9))}
	f.ring = chord.NewRing(f.log, chord.Config{})
	if _, err := f.ring.AddNodes("p", peers); err != nil {
		t.Fatal(err)
	}
	f.ring.Build()
	if cfg.InitialTerms == 0 {
		cfg.InitialTerms, cfg.TermsPerIteration, cfg.MaxIndexTerms = 3, 2, 7
	}
	cfg.Telemetry = f.reg
	var err error
	if f.n, err = NewNetwork(f.ring, cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		tf := map[string]int{}
		for len(tf) < 14 {
			tf[f.word()] = 1 + f.rng.Intn(5)
		}
		if err := f.n.ShareCtx(context.Background(), simnet.Addr(fmt.Sprintf("p%d", i%owners)), doc(fmt.Sprintf("d%d", i), tf)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *learnFixture) word() string { return fmt.Sprintf("w%d", f.rng.Intn(60)) }

// queries records count three-word queries issued from random peers: inserted
// into the histories, or — search set — searched, so that with caches on the
// recordings go through the caches.
func (f *learnFixture) queries(t *testing.T, count int, search bool) {
	t.Helper()
	peers := f.n.Peers()
	for q := 0; q < count; q++ {
		from, terms := peers[f.rng.Intn(len(peers))].Addr(), []string{f.word(), f.word(), f.word()}
		var err error
		if search {
			_, err = f.n.SearchCtx(context.Background(), from, terms, 10)
		} else {
			err = f.n.InsertQueryCtx(context.Background(), from, terms)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// docView is everything a learning iteration leaves in one document's state.
type docView struct {
	Indexed     []string
	Stats       map[string]termStat
	Since       map[string]pollMark
	PublishedAt map[string]simnet.Addr
}

func (n *Network) docViews() map[index.DocID]docView {
	out := map[index.DocID]docView{}
	for _, p := range n.Peers() {
		p.mu.Lock()
		for id, st := range p.owned {
			st.mu.Lock()
			v := docView{Indexed: sortedIndexedTerms(st), Stats: map[string]termStat{}, Since: map[string]pollMark{}, PublishedAt: map[string]simnet.Addr{}}
			for t, ts := range st.stats {
				v.Stats[t] = *ts
			}
			for t, m := range st.since {
				v.Since[t] = m
			}
			for t, at := range st.publishedAt {
				v.PublishedAt[t] = at
			}
			st.mu.Unlock()
			out[id] = v
		}
		p.mu.Unlock()
	}
	return out
}

// halfJoin joins three new peers and runs one stabilization round: each
// joiner's successor now names it as predecessor, and handed it the entries
// of its new arc, but the joiner's own predecessor is still unknown and the
// node before it still points past it. Until the ring has stabilized the
// joiners refuse every key and the successors refuse the joiners' arcs, while
// lookups still end at the successors.
func (f *learnFixture) halfJoin(t *testing.T) {
	t.Helper()
	boot, _ := f.n.Peer("p0")
	for i := 0; i < 3; i++ {
		j, err := f.ring.AddNode(fmt.Sprintf("j%d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.n.Adopt(j)
		if err := j.Join(boot.Node()); err != nil {
			t.Fatal(err)
		}
	}
	f.ring.Stabilize(1)
}

// TestBatchedSweepMatchesPerTermOracle pins the batched sweep to the per-term
// iteration it replaced (learnAllPerTerm): after each of three iterations,
// with fresh queries before each, every document's index terms, statistics
// (QF, max qScore), watermarks and holders of record must be the oracle's —
// on 16 and 64 peers, at Parallelism 1 and 8, caches off and on, and on a ring
// where joins have only half stabilized before the second iteration, so that
// items are refused by their holders and re-routed.
func TestBatchedSweepMatchesPerTermOracle(t *testing.T) {
	for _, peers := range []int{16, 64} {
		for _, par := range []int{1, 8} {
			for _, caches := range []bool{false, true} {
				for _, join := range []bool{false, true} {
					t.Run(fmt.Sprintf("peers=%d/par=%d/caches=%v/join=%v", peers, par, caches, join), func(t *testing.T) {
						run := func(sweep func(*Network, context.Context) (int, error)) ([]map[index.DocID]docView, int64) {
							cfg := Config{Parallelism: par}
							if caches {
								cfg.Cache = CacheConfig{Enabled: true}
							}
							f := newLearnFixture(t, peers, 5, 40, cfg)
							var views []map[index.DocID]docView
							for it := 0; it < 3; it++ {
								if join && it == 1 {
									f.halfJoin(t)
								}
								if join && it == 2 {
									f.ring.Stabilize(100)
									f.ring.RepairFingers()
								}
								f.queries(t, 150, caches)
								changes, err := sweep(f.n, context.Background())
								if err != nil {
									t.Fatal(err)
								}
								if changes == 0 {
									t.Fatalf("iteration %d changed nothing: the comparison is vacuous", it+1)
								}
								views = append(views, f.n.docViews())
							}
							return views, f.reg.Counter("sprite.learn.rerouted").Value()
						}
						batched, rerouted := run((*Network).LearnAllCtx)
						oracle, _ := run((*Network).learnAllPerTerm)
						for it := range oracle {
							for id, want := range oracle[it] {
								if got := batched[it][id]; !reflect.DeepEqual(got, want) {
									t.Fatalf("iteration %d, %s:\nbatched %+v\noracle  %+v", it+1, id, got, want)
								}
							}
						}
						if join && rerouted == 0 {
							t.Fatal("no item was refused and re-routed: the half-stabilized join tested nothing")
						}
						if !join && rerouted != 0 {
							t.Fatalf("%d items re-routed on a stable ring", rerouted)
						}
					})
				}
			}
		}
	}
}

// pollBatches returns the batched polls among msgs, by (owner, holder), as the
// (document, term) items each carried.
func pollBatches(msgs []sentMsg) map[[2]simnet.Addr][][]string {
	out := map[[2]simnet.Addr][][]string{}
	for _, m := range msgs {
		req, ok := m.req.Payload.(pollReq)
		if m.req.Type != msgPoll || !ok || !req.CheckArc {
			continue
		}
		var items []string
		for _, d := range req.Docs {
			for _, t := range d.Terms {
				items = append(items, string(d.Doc)+"/"+t.Term)
			}
		}
		k := [2]simnet.Addr{m.from, m.to}
		out[k] = append(out[k], items)
	}
	return out
}

// itemsByHolder lists each owner's (document, term) items by holder of
// record, in the order a sweep polls them.
func itemsByHolder(n *Network) map[[2]simnet.Addr][]string {
	out := map[[2]simnet.Addr][]string{}
	for _, id := range n.Documents() {
		di, _ := n.DocIndexInfo(id)
		for _, term := range di.Terms {
			k := [2]simnet.Addr{di.Owner, di.PublishedAt[term]}
			out[k] = append(out[k], string(id)+"/"+term)
		}
	}
	return out
}

// TestDeadHolderCostsOnlyItsBatch fails one indexing peer and demands that
// its items — and only they — leave the batches: no poll is sent to it, each
// of its items is answered over the per-term route by the peer the ring now
// gives its key to, every other holder still gets exactly one poll per owner
// carrying exactly that owner's items for it, and the sweep learns what the
// per-term iteration learns on the same broken ring.
func TestDeadHolderCostsOnlyItsBatch(t *testing.T) {
	const peers, owners = 16, 4
	setup := func() (*learnFixture, simnet.Addr) {
		f := newLearnFixture(t, peers, owners, 40, Config{Parallelism: 1})
		f.queries(t, 150, false)
		if _, err := f.n.LearnAllCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The busiest indexing peer that owns no document.
		load := map[simnet.Addr]int{}
		for k, items := range itemsByHolder(f.n) {
			load[k[1]] += len(items)
		}
		dead := simnet.Addr("")
		for i := owners; i < peers; i++ {
			if a := simnet.Addr(fmt.Sprintf("p%d", i)); dead == "" || load[a] > load[dead] {
				dead = a
			}
		}
		f.queries(t, 150, false)
		f.n.Ring().Net().(simnet.FaultInjector).Fail(dead)
		return f, dead
	}

	f, dead := setup()
	want := itemsByHolder(f.n)
	deadItems := 0
	for k, items := range want {
		if k[1] == dead {
			deadItems += len(items)
		}
	}
	if deadItems == 0 {
		t.Fatal("the failed peer holds no item")
	}
	f.log.drain()
	if _, err := f.n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	msgs := f.log.drain()
	for _, m := range msgs {
		if m.to == dead && (m.req.Type == msgPoll || m.req.Type == msgPublish) {
			t.Fatalf("%s sent %s to the dead holder %s", m.from, m.req.Type, dead)
		}
	}
	batches := pollBatches(msgs)
	for k, items := range want {
		if k[1] == dead || k[0] == k[1] {
			continue
		}
		if got := batches[k]; len(got) != 1 || !reflect.DeepEqual(got[0], items) {
			t.Fatalf("%s polled %s with %v, want one batch %v", k[0], k[1], got, items)
		}
	}
	if got := f.reg.Counter("sprite.learn.rerouted").Value(); got < int64(deadItems) {
		t.Fatalf("%d items re-routed, want the dead holder's %d and its publishes", got, deadItems)
	}
	for _, id := range f.n.Documents() {
		p, _ := f.n.Owner(id)
		st := p.owned[id]
		for term, at := range st.publishedAt {
			if mark := st.since[term]; at == dead && (mark.At == "" || mark.At == dead) {
				t.Fatalf("%s/%s: watermark %+v, want one from the peer that now serves the key", id, term, mark)
			}
		}
	}

	oracle, _ := setup()
	if _, err := oracle.n.learnAllPerTerm(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, wantViews := f.n.docViews(), oracle.n.docViews()
	for id := range wantViews {
		if !reflect.DeepEqual(got[id], wantViews[id]) {
			t.Fatalf("%s after the sweep: %+v, per-term %+v", id, got[id], wantViews[id])
		}
	}
}

// TestLearnPollsGoStraightToThePosting runs three learning iterations over a
// stable 16-peer ring, fresh queries before each, and demands that a sweep
// sends each indexing peer at most one poll per owner — at most owners ×
// (peers − 1) remote polls, where the per-term iteration sent one per index
// term — that none of them costs a routing round trip (only a key in the
// owner's own arc still walks the ring), and that every document learns what
// the per-term iteration learns.
func TestLearnPollsGoStraightToThePosting(t *testing.T) {
	const peers, owners, iterations = 16, 4, 3
	type iteration struct {
		views       map[index.DocID]docView
		polls, hops int
	}
	run := func(sweep func(*Network, context.Context) (int, error)) []iteration {
		f := newLearnFixture(t, peers, owners, 40, Config{Parallelism: 1})
		var out []iteration
		for it := 0; it < iterations; it++ {
			f.queries(t, 150, false)
			f.log.drain()
			if _, err := sweep(f.n, context.Background()); err != nil {
				t.Fatal(err)
			}
			sent, hops := typeCounts(f.log.drain())
			out = append(out, iteration{views: f.n.docViews(), polls: sent[msgPoll], hops: hops[msgPoll]})
		}
		return out
	}
	batched, oracle := run((*Network).LearnAllCtx), run((*Network).learnAllPerTerm)
	for it := range batched {
		if b := batched[it]; b.polls > owners*(peers-1) || b.hops != 0 {
			t.Fatalf("iteration %d: %d remote polls (bound %d) taking %d chord.next_hop round trips, want none", it+1, b.polls, owners*(peers-1), b.hops)
		}
		if oracle[it].polls <= owners*(peers-1) {
			t.Fatalf("iteration %d: the per-term iteration sent only %d polls: the bound proves nothing", it+1, oracle[it].polls)
		}
		if !reflect.DeepEqual(batched[it].views, oracle[it].views) {
			t.Fatalf("iteration %d: documents differ between the sweep and the per-term iteration", it+1)
		}
		if it > 0 && reflect.DeepEqual(batched[it].views, batched[it-1].views) {
			t.Fatalf("iteration %d learned nothing: the comparison is vacuous", it+1)
		}
		t.Logf("iteration %d: %d remote polls, per-term %d", it+1, batched[it].polls, oracle[it].polls)
	}
}

// TestPollWatermarkBelongsToItsPeer moves a term's arc to a joiner after the
// owner has polled the old indexing peer, records queries at the joiner —
// fewer than the old peer's watermark, so that number applied to the joiner's
// history would skip them all — and demands that the next sweep folds each of
// them exactly once into each of three documents and the one after it none,
// however the owner comes to poll the joiner: after a refresh migrated the
// postings, after the join's handoff relocated them — both times in one
// batch — or with the postings still at the old peer, which refuses its
// batch's items for the moved key and leaves them to the ring.
func TestPollWatermarkBelongsToItsPeer(t *testing.T) {
	for _, mode := range []string{"refresh", "handoff", "ring"} {
		t.Run(mode, func(t *testing.T) {
			log := &msgLog{Network: simnet.New(3)}
			ring := chord.NewRing(log, chord.Config{})
			if _, err := ring.AddNodes("m", 6); err != nil {
				t.Fatal(err)
			}
			ring.Build()
			reg := telemetry.NewRegistry()
			n, err := NewNetwork(ring, Config{InitialTerms: 4, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			terms := []string{"terma", "termb", "termc", "termd"}
			docs := []index.DocID{"d", "d2", "d3"}
			joinName := findJoiner(ring)
			if joinName == "" {
				t.Skip("no joiner candidate found (hash layout)")
			}
			// The terms the joiner will take over, and an owner that is not
			// their indexing peer before the join, so that its polls of them
			// are addressed to that peer.
			var moved []string
			oldHolders := map[simnet.Addr]bool{}
			for _, term := range terms {
				key := chordid.HashKey(term)
				if holder, _ := ring.Owner(key); chordid.HashKey(joinName).BetweenLeftIncl(key, holder.ID()) {
					moved = append(moved, term)
					oldHolders[holder.Addr()] = true
				}
			}
			var ownerAddr simnet.Addr
			for _, node := range ring.Nodes() {
				if !oldHolders[node.Addr()] {
					ownerAddr = node.Addr()
					break
				}
			}
			for i, id := range docs {
				if err := n.Share(ownerAddr, doc(string(id), map[string]int{"terma": 4 + i, "termb": 3, "termc": 2, "termd": 1})); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			for i := 0; i < 6; i++ {
				if err := n.InsertQuery("m1", terms); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := n.LearnAllCtx(ctx); err != nil {
				t.Fatal(err)
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
			for _, term := range moved {
				if holder, _ := ring.Owner(chordid.HashKey(term)); holder != joiner {
					t.Fatalf("%q is served by %s after the join, not the joiner", term, holder.Addr())
				}
			}
			owner, _ := n.peer(ownerAddr)
			for _, id := range docs {
				old := owner.owned[id].since[moved[0]]
				if old.At == "" || old.At == joiner.Addr() || old.Since < 6 {
					t.Fatalf("%s: watermark of %q before the move = %+v, want one of the old indexing peer's past 6", id, moved[0], old)
				}
			}
			const fresh = 3
			for i := 0; i < fresh; i++ {
				if err := n.InsertQuery("m2", []string{moved[0]}); err != nil {
					t.Fatal(err)
				}
			}
			newPeer, _ := n.peer(joiner.Addr())
			if got := newPeer.HistoryLen(); got != fresh {
				t.Fatalf("the joiner recorded %d queries, want %d", got, fresh)
			}
			if mode == "refresh" {
				if movedEntries, err := n.RefreshAll(); err != nil || movedEntries != len(docs)*len(moved) {
					t.Fatalf("RefreshAll = %d, %v; want the %d postings of %v migrated", movedEntries, err, len(docs)*len(moved), moved)
				}
			}
			before := map[index.DocID]int{}
			for _, id := range docs {
				st := owner.owned[id]
				for _, term := range moved {
					if at := st.publishedAt[term]; (at == joiner.Addr()) != (mode != "ring") {
						t.Fatalf("mode %s: %s/%q published at %s", mode, id, term, at)
					}
				}
				before[id] = st.stats[moved[0]].qf
			}
			refused := 0 // the moved terms' items the old holder refuses
			if mode == "ring" {
				refused = len(docs) * len(moved)
			}
			for round, want := range []int{fresh, 0} {
				log.drain()
				rerouted := reg.Counter("sprite.learn.rerouted").Value()
				if _, err := n.LearnAllCtx(ctx); err != nil {
					t.Fatal(err)
				}
				batches := pollBatches(log.drain())[[2]simnet.Addr{ownerAddr, joiner.Addr()}]
				rerouted = reg.Counter("sprite.learn.rerouted").Value() - rerouted
				switch {
				case mode != "ring" && (len(batches) != 1 || len(batches[0]) != len(docs)*len(moved)):
					t.Fatalf("round %d: the owner polled the joiner with %v, want one batch of every document's moved terms", round+1, batches)
				case rerouted != int64(refused):
					t.Fatalf("round %d: %d items re-routed, want the %d the old holder no longer serves", round+1, rerouted, refused)
				}
				for _, id := range docs {
					st := owner.owned[id]
					if got := st.stats[moved[0]].qf - before[id]; got != want {
						t.Fatalf("%s: learning round %d after the move folded %d queries of %q, want %d", id, round+1, got, moved[0], want)
					}
					before[id] = st.stats[moved[0]].qf
					if mark := st.since[moved[0]]; mark != (pollMark{At: joiner.Addr(), Since: fresh}) {
						t.Fatalf("%s: watermark of %q after round %d = %+v, want the joiner's %d", id, moved[0], round+1, mark, fresh)
					}
				}
			}
		})
	}
}

// TestLearnSweepInflightBounded: the sweep's phases are flat fan-outs, so at
// Parallelism 8 no more than eight items are ever in flight. The per-term
// iteration nested each document's poll fan-out inside the document fan-out;
// its peak is reported beside.
func TestLearnSweepInflightBounded(t *testing.T) {
	peak := func(sweep func(*Network, context.Context) (int, error)) int64 {
		f := newLearnFixture(t, 16, 4, 40, Config{Parallelism: 8})
		f.queries(t, 150, false)
		if _, err := sweep(f.n, context.Background()); err != nil {
			t.Fatal(err)
		}
		return f.reg.Gauge("sprite.fanout.inflight").Peak()
	}
	batched, perTerm := peak((*Network).LearnAllCtx), peak((*Network).learnAllPerTerm)
	t.Logf("sprite.fanout.inflight peak at Parallelism 8: sweep %d, per-term learn_doc → poll %d", batched, perTerm)
	if batched > 8 {
		t.Fatalf("sweep peaked at %d items in flight, bound 8", batched)
	}
}

// TestLearnBatchSizesTrackEncodedLength: the simulated size of every poll and
// publish of a sweep — requests and replies, batches and single items — is
// within 8 bytes plus 2 per item of what the binary codec writes, an item
// being a (document, term) pair, a publish, a refusal or, in a poll's reply,
// also a returned query (whose term count a single poll's size never held).
func TestLearnBatchSizesTrackEncodedLength(t *testing.T) {
	f := newLearnFixture(t, 16, 4, 40, Config{Parallelism: 1})
	f.halfJoin(t) // some items refused, some routed
	f.log.drain()
	for it := 0; it < 2; it++ {
		f.queries(t, 150, false)
		if _, err := f.n.LearnAllCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	largest := map[string]int{}
	for _, m := range f.log.drain() {
		for _, msg := range []simnet.Message{m.req, m.reply} {
			var what string
			items := 0
			switch p := msg.Payload.(type) {
			case pollReq:
				what = "pollReq"
				for _, d := range p.Docs {
					items += len(d.Terms)
				}
			case pollResp:
				what = "pollResp"
				items = len(p.Items)
				for _, r := range p.Items {
					items += len(r.Queries)
				}
			case publishReq:
				what, items = "publishReq", len(p.Items)
			case publishResp:
				what, items = "publishResp", len(p.Refused)
			default:
				continue
			}
			enc, ok := wire.AppendBinary(nil, msg.Payload)
			if !ok {
				t.Fatalf("%s has no binary codec", what)
			}
			if d := len(enc) - msg.Size; d < -(8+2*items) || d > 8+2*items {
				t.Fatalf("%s of %d items: Size %d, %d bytes on the wire", what, items, msg.Size, len(enc))
			}
			largest[what] = max(largest[what], items)
		}
	}
	for _, what := range []string{"pollReq", "pollResp", "publishReq"} {
		if largest[what] < 2 {
			t.Fatalf("no %s carried more than one item", what)
		}
	}
}

// TestConcurrentSweepsShareNoLockCycle runs whole-network sweeps,
// single-document sweeps and unshare / re-share cycles at once. A re-share
// moves a document to the end of the share order, so two sweeps can see the
// same documents in different orders; each holds all its documents' locks,
// taken in doc-ID order, so they cannot wait on each other in a cycle. A
// document unshared while a sweep waited for its lock is left alone: when
// everything has settled, every posting in the index belongs to a shared
// document's index term at the holder its owner recorded. Meaningful under
// -race, and as a deadlock check under -timeout.
func TestConcurrentSweepsShareNoLockCycle(t *testing.T) {
	f := newLearnFixture(t, 16, 4, 24, Config{Parallelism: 4})
	f.queries(t, 100, false)
	ctx := context.Background()
	type shared struct {
		owner simnet.Addr
		doc   *corpus.Document
	}
	var docs []shared
	for _, id := range f.n.Documents() {
		p, _ := f.n.Owner(id)
		docs = append(docs, shared{p.Addr(), p.owned[id].doc})
	}
	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	for w := 0; w < 2; w++ {
		run(func() {
			for i := 0; i < 8; i++ {
				if _, err := f.n.LearnAllCtx(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	run(func() {
		for i := 0; i < 24; i++ {
			f.n.LearnDocCtx(ctx, docs[i%len(docs)].doc.ID) //nolint:errcheck // the document may be between unshare and share
		}
	})
	run(func() {
		for i := 0; i < 12; i++ {
			d := docs[(5*i)%len(docs)]
			if err := f.n.Unshare(d.doc.ID); err != nil {
				t.Error(err)
				return
			}
			if err := f.n.ShareCtx(ctx, d.owner, d.doc); err != nil {
				t.Error(err)
				return
			}
		}
	})
	wg.Wait()

	views := f.n.docViews()
	for _, e := range f.n.PrimarySnapshot() {
		v, ok := views[e.Posting.Doc]
		if !ok || v.PublishedAt[e.Term] != e.Peer {
			t.Fatalf("%s holds %s/%s, which its owner does not record there (%v)", e.Peer, e.Posting.Doc, e.Term, v.PublishedAt)
		}
	}
}
