package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// searchPerTerm is a recorded search as it ran before fetches were batched:
// every distinct term fetched on its own route (the postings protocol's
// one-item form, the path a batch's refused terms take), then the one merge.
func (p *Peer) searchPerTerm(ctx context.Context, terms []string, k int) (ir.RankedList, error) {
	dts := distinctTerms(terms)
	fetch := p.fetching("fetch", dts, terms, true, nil)
	outs, errs := fanout.Map(ctx, p.net.exec, "fetch", len(dts), func(ctx context.Context, i int) (termFetch, error) {
		out, _, err := fetch.route(ctx, i, dest{}, nil)
		return out, err
	})
	if err := fanout.FirstError(errs); err != nil {
		return nil, err
	}
	return ir.MergeTopK(p.mergeTerms(terms, dts, outs), k), nil
}

// histories returns every peer's query history as its entries' terms and
// sequence numbers in arrival order.
func (n *Network) histories() map[simnet.Addr][]string {
	out := map[simnet.Addr][]string{}
	for _, p := range n.Peers() {
		s := &p.indexing
		s.mu.Lock()
		for _, q := range s.history.issuances() {
			out[p.Addr()] = append(out[p.Addr()], fmt.Sprint(q.seq, q.terms))
		}
		s.mu.Unlock()
	}
	return out
}

// searchStream runs count searches of one to five words from random peers
// through search and returns their rankings.
func (f *learnFixture) searchStream(t *testing.T, count int, search func(p *Peer, terms []string) (ir.RankedList, error)) []ir.RankedList {
	t.Helper()
	peers := f.n.Peers()
	var out []ir.RankedList
	for q := 0; q < count; q++ {
		p := peers[f.rng.Intn(len(peers))]
		terms := make([]string, 1+f.rng.Intn(5))
		for i := range terms {
			terms[i] = f.word()
		}
		rl, err := search(p, terms)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rl)
	}
	return out
}

// TestBatchedFetchMatchesPerTermOracle pins the batched fetch stage to the
// per-term fetches it replaced (searchPerTerm): the same query stream must
// rank the same, leave every indexing peer the same history — one entry per
// term it served, in the same order — and so teach the next learning
// iteration the same index terms, on 16 and 64 peers, at Parallelism 1 and 8,
// and on a ring where joins have only half stabilized, so that holders refuse
// terms and those go round on the ring. On a stable ring it costs fewer
// messages.
func TestBatchedFetchMatchesPerTermOracle(t *testing.T) {
	for _, peers := range []int{16, 64} {
		for _, par := range []int{1, 8} {
			for _, join := range []bool{false, true} {
				t.Run(fmt.Sprintf("peers=%d/par=%d/join=%v", peers, par, join), func(t *testing.T) {
					type outcome struct {
						rankings  []ir.RankedList
						histories map[simnet.Addr][]string
						learned   map[index.DocID]docView
						msgs      int
						rerouted  int64
					}
					run := func(search func(p *Peer, terms []string) (ir.RankedList, error)) outcome {
						f := newLearnFixture(t, peers, 5, 40, Config{Parallelism: par})
						if join {
							f.halfJoin(t)
						}
						f.log.drain()
						var o outcome
						o.rankings = f.searchStream(t, 150, func(p *Peer, terms []string) (ir.RankedList, error) {
							return search(p, terms)
						})
						sent, _ := typeCounts(f.log.drain())
						o.msgs = sent[msgGetPostings] + sent["chord.next_hop"]
						o.histories = f.n.histories()
						o.rerouted = f.reg.Counter("sprite.fetch.rerouted").Value()
						if _, err := f.n.LearnAllCtx(context.Background()); err != nil {
							t.Fatal(err)
						}
						o.learned = f.n.docViews()
						return o
					}
					batched := run(func(p *Peer, terms []string) (ir.RankedList, error) {
						return p.searchCtx(context.Background(), terms, 10, true, nil)
					})
					oracle := run(func(p *Peer, terms []string) (ir.RankedList, error) {
						return p.searchPerTerm(context.Background(), terms, 10)
					})
					if !reflect.DeepEqual(batched.rankings, oracle.rankings) {
						t.Fatal("batched fetches rank differently from per-term fetches")
					}
					if !reflect.DeepEqual(batched.histories, oracle.histories) {
						t.Fatal("batched fetches left other query histories than per-term fetches")
					}
					if !reflect.DeepEqual(batched.learned, oracle.learned) {
						t.Fatal("the learning iteration after batched fetches learned other index terms than after per-term fetches")
					}
					if join && batched.rerouted == 0 {
						t.Fatal("no batched term was refused on the half-joined ring")
					}
					// A refused term goes the very route the oracle takes, so it
					// costs at most the batch message on top; every served term
					// saves its route.
					t.Logf("fetch traffic: batched %d messages (%d terms rerouted), per-term %d", batched.msgs, batched.rerouted, oracle.msgs)
					if batched.msgs > oracle.msgs+int(batched.rerouted) || (!join && batched.msgs >= oracle.msgs) {
						t.Fatalf("batched fetches cost %d messages with %d terms rerouted, per-term %d", batched.msgs, batched.rerouted, oracle.msgs)
					}
				})
			}
		}
	}
}

// TestFetchSizesTrackEncodedLength is the postings side of chord's
// TestSimulatedSizesTrackEncodedLength: every get_postings request and reply
// — one term or many, with refusals and without — costs exactly what the
// binary codec writes for its payload.
func TestFetchSizesTrackEncodedLength(t *testing.T) {
	f := newLearnFixture(t, 16, 4, 40, Config{Parallelism: 1})
	f.halfJoin(t) // some terms refused, some routed
	f.log.drain()
	f.searchStream(t, 150, func(p *Peer, terms []string) (ir.RankedList, error) {
		return p.searchCtx(context.Background(), terms, 10, true, nil)
	})
	seen := map[string]int{}
	for _, m := range f.log.drain() {
		for _, msg := range []simnet.Message{m.req, m.reply} {
			switch msg.Payload.(type) {
			case getPostingsReq, getPostingsResp:
			default:
				continue // a routed delivery's envelope is chord's to check
			}
			what := sizeCase(msg.Payload)
			if want := encodedSize(t, msg); msg.Size != want {
				t.Fatalf("%s: Size %d, %d bytes encoded", what, msg.Size, want)
			}
			seen[what]++
		}
	}
	for _, what := range []string{
		"get_postings request of one", "get_postings request of several",
		"get_postings reply of one, none refused", "get_postings reply of several, none refused",
		"get_postings reply of several, one refused",
	} {
		if seen[what] == 0 {
			t.Fatalf("no %s was exchanged (saw %v)", what, seen)
		}
	}
}
