package sprite

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/transport"
)

// TestTransportTwinDeterminism runs one workload — share, search, learn,
// search again — on the simulator and on the TCP transport, and requires
// byte-identical rankings (document IDs and scores) from both. The transport
// is infrastructure: if changing it changes what a search returns, the
// transport is wrong.
func TestTransportTwinDeterminism(t *testing.T) {
	docs := []string{
		"chord scalable lookup protocol for internet applications",
		"distributed hash tables partition keys across peers",
		"progressive index tuning learns terms from query streams",
		"replication keeps postings available through peer churn",
		"text retrieval ranks documents by term frequency weights",
	}
	queries := []string{"lookup peers", "index tuning query", "replication churn", "retrieval weights"}

	type hit struct {
		doc   string
		score float64
	}
	run := func(opts Options) [][]hit {
		n, err := New(opts)
		if err != nil {
			t.Fatalf("New(%+v): %v", opts, err)
		}
		defer n.Close()
		peers := n.Peers()
		for i, text := range docs {
			if err := n.Share(peers[i%len(peers)], fmt.Sprintf("doc-%d", i), text); err != nil {
				t.Fatalf("Share doc-%d: %v", i, err)
			}
		}
		var rankings [][]hit
		collect := func(peer, q string) {
			res, err := n.Search(peer, q, 10)
			if err != nil {
				t.Fatalf("Search %q: %v", q, err)
			}
			hits := make([]hit, 0, len(res))
			for _, r := range res {
				hits = append(hits, hit{doc: r.DocID, score: r.Score})
			}
			rankings = append(rankings, hits)
		}
		for i, q := range queries {
			collect(peers[(i+1)%len(peers)], q)
		}
		if _, err := n.Learn(); err != nil {
			t.Fatalf("Learn: %v", err)
		}
		for i, q := range queries {
			collect(peers[(i+2)%len(peers)], q)
		}
		return rankings
	}

	base := Options{Peers: 6, Seed: 7, InitialTerms: 3, TermsPerIteration: 2, MaxIndexTerms: 8}
	variants := map[string][][]hit{}
	variants["simnet"] = run(base)
	pooled := base
	pooled.TCP = true
	variants["pooled"] = run(pooled)

	want := variants["simnet"]
	for name, got := range variants {
		if len(got) != len(want) {
			t.Fatalf("%s produced %d rankings, simnet %d", name, len(got), len(want))
		}
		for qi := range want {
			if len(got[qi]) != len(want[qi]) {
				t.Fatalf("%s query %d returned %d hits, simnet %d:\n%v\nvs\n%v",
					name, qi, len(got[qi]), len(want[qi]), got[qi], want[qi])
			}
			for hi := range want[qi] {
				if got[qi][hi] != want[qi][hi] {
					t.Fatalf("%s query %d hit %d = %+v, simnet %+v — transports disagree on ranking",
						name, qi, hi, got[qi][hi], want[qi][hi])
				}
			}
		}
	}
}

// namedTransport gives the peers of a socket transport the simulator's names.
// Ring positions are hashes of names, so with it the ring — and every route,
// hint and refusal — is the same on every transport, which is what lets the
// twin below compare message counts and not only rankings. It counts the calls
// between distinct peers by message type.
type namedTransport struct {
	inner   simnet.Transport
	real    map[simnet.Addr]simnet.Addr // name → socket address; empty on simnet
	logical map[simnet.Addr]simnet.Addr // socket address → name

	mu    sync.Mutex
	calls map[string]int
}

func (nt *namedTransport) toReal(a simnet.Addr) simnet.Addr {
	if r, ok := nt.real[a]; ok {
		return r
	}
	return a
}

func (nt *namedTransport) Register(addr simnet.Addr, h simnet.Handler) {
	nt.inner.Register(nt.toReal(addr), simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		if name, ok := nt.logical[from]; ok {
			from = name
		}
		return h.HandleMessage(from, msg)
	}))
}

func (nt *namedTransport) Unregister(addr simnet.Addr) { nt.inner.Unregister(nt.toReal(addr)) }

func (nt *namedTransport) Alive(addr simnet.Addr) bool { return nt.inner.Alive(nt.toReal(addr)) }

func (nt *namedTransport) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return nt.CallCtx(context.Background(), from, to, msg)
}

func (nt *namedTransport) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	if from != to {
		nt.mu.Lock()
		nt.calls[msg.Type]++
		nt.mu.Unlock()
	}
	return nt.inner.CallCtx(ctx, nt.toReal(from), nt.toReal(to), msg)
}

// TestTransportTwinMessageCounts runs share, search, a protocol join, learn
// and search again on one ring over the simulator and over the socket
// transport, and requires the same rankings and the same number of messages
// of every type — those of the learning iteration on their own as well, where
// every poll that leaves its owner travels on the owner's own hint — and the
// same index terms learned. Routed deliveries travel inside chord's envelope,
// and the half-stabilized join leaves nodes that still hint at the joiner's
// successor for its arc, so this is also the check that the envelope, its
// refusal and the hint in a hop answer cross a socket meaning what they mean
// in process.
func TestTransportTwinMessageCounts(t *testing.T) {
	const peers = 24
	docs := []map[string]int{
		{"chord": 4, "lookup": 3, "protocol": 2, "scalable": 1},
		{"hash": 4, "table": 3, "peers": 2, "keys": 1},
		{"index": 4, "tuning": 3, "query": 2, "learns": 1},
		{"replication": 4, "churn": 3, "postings": 2, "peers": 1},
		{"retrieval": 4, "weights": 3, "term": 2, "lookup": 1},
	}
	queries := [][]string{{"lookup", "peers"}, {"index", "tuning", "query"}, {"replication", "churn"}, {"retrieval", "weights"}, {"chord", "keys", "term"}}

	type outcome struct {
		rankings []ir.RankedList
		calls    map[string]int
		learn    map[string]int // the share of calls the learning iteration sent
		indexed  map[index.DocID][]string
	}
	run := func(name string, inner simnet.Transport, closeFn func()) outcome {
		defer closeFn()
		nt := &namedTransport{inner: inner, real: map[simnet.Addr]simnet.Addr{}, logical: map[simnet.Addr]simnet.Addr{}, calls: map[string]int{}}
		if _, sockets := inner.(*simnet.Network); !sockets {
			addrs, err := transport.FreeAddrs(peers + 1) // the last one is the joiner's
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, a := range addrs {
				peer := simnet.Addr(fmt.Sprintf("peer%d", i))
				nt.real[peer], nt.logical[a] = a, peer
			}
		}
		reg := telemetry.NewRegistry()
		ring := chord.NewRing(nt, chord.Config{Telemetry: reg})
		if _, err := ring.AddNodes("peer", peers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ring.Build()
		n, err := core.NewNetwork(ring, core.Config{InitialTerms: 3, TermsPerIteration: 2, MaxIndexTerms: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		peer := func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("peer%d", i%peers)) }
		for i, tf := range docs {
			if err := n.Share(peer(i), corpus.NewDocument(index.DocID(fmt.Sprintf("doc-%d", i)), tf)); err != nil {
				t.Fatalf("%s: Share doc-%d: %v", name, i, err)
			}
		}
		var out outcome
		search := func(from simnet.Addr, q []string) {
			rl, err := n.Search(from, q, 10)
			if err != nil {
				t.Fatalf("%s: Search %v: %v", name, q, err)
			}
			out.rankings = append(out.rankings, rl)
		}
		for i, q := range queries {
			search(peer(i+5), q)
		}
		joiner, err := ring.AddNode(fmt.Sprintf("peer%d", peers))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n.Adopt(joiner)
		if err := joiner.Join(ring.Nodes()[0]); err != nil {
			t.Fatalf("%s: join: %v", name, err)
		}
		// One round: the joiner's successor adopts it, but the nodes before
		// it have not heard yet and still place its arc at that successor.
		ring.Stabilize(1)
		// Terms of the joiner's new arc, published and searched from all over
		// the ring.
		nodes := ring.Nodes() // sorted by ring position
		before := nodes[len(nodes)-1]
		for i, nd := range nodes[1:] {
			if nd == joiner {
				before = nodes[i]
			}
		}
		var arcTerms []string
		arcTF := map[string]int{}
		for i := 0; len(arcTerms) < 3; i++ {
			term := fmt.Sprintf("arc%d", i)
			if chordid.HashKey(term).BetweenRightIncl(before.ID(), joiner.ID()) {
				arcTerms = append(arcTerms, term)
				arcTF[term] = len(arcTerms)
			}
		}
		if err := n.Share(peer(3), corpus.NewDocument("doc-arc", arcTF)); err != nil {
			t.Fatalf("%s: Share doc-arc: %v", name, err)
		}
		for _, term := range arcTerms {
			for i := 0; i < peers; i += 3 {
				search(peer(i), []string{term})
			}
		}
		counters := []string{"chord.route.hinted", "chord.route.hint_rejected"}
		tally := func() map[string]int {
			nt.mu.Lock()
			defer nt.mu.Unlock()
			calls := map[string]int{}
			for typ, c := range nt.calls {
				calls[typ] = c
			}
			for _, c := range counters {
				calls[c] = int(reg.Counter(c).Value())
			}
			return calls
		}
		prior := tally()
		if _, err := n.LearnAll(); err != nil {
			t.Fatalf("%s: LearnAll: %v", name, err)
		}
		out.learn = tally()
		for typ := range out.learn {
			out.learn[typ] -= prior[typ]
		}
		out.indexed = map[index.DocID][]string{}
		for _, id := range n.Documents() {
			out.indexed[id], _ = n.IndexedTerms(id)
		}
		for i, q := range queries {
			search(peer(i+7), q)
		}
		out.calls = tally()
		return out
	}

	want := run("simnet", simnet.New(7), func() {})
	if want.calls["chord.route.hinted"] == 0 || want.calls["chord.route.hint_rejected"] == 0 {
		t.Fatalf("simnet run exchanged %v — the workload follows or refuses no owner hint", want.calls)
	}
	// One message per poll, no routing round trip in front of it: the learning
	// iteration's hinted deliveries cover its polls, and its next_hop traffic
	// is what its publishes alone would need (at most two walks' worth each).
	if l := want.learn; l["sprite.poll"] == 0 || l["chord.route.hinted"] < l["sprite.poll"] || l["chord.next_hop"] > 4*l["sprite.publish"] {
		t.Fatalf("simnet learning iteration exchanged %v — its polls are not travelling on the owner's hint", l)
	}
	tcp := transport.New()
	got := run("tcp", tcp, tcp.Close)
	if !reflect.DeepEqual(got.rankings, want.rankings) {
		t.Fatalf("tcp rankings differ from simnet:\n%v\nvs\n%v", got.rankings, want.rankings)
	}
	if !reflect.DeepEqual(got.calls, want.calls) || !reflect.DeepEqual(got.learn, want.learn) {
		t.Fatalf("tcp message counts differ from simnet:\n%v, learning %v\nvs\n%v, learning %v", got.calls, got.learn, want.calls, want.learn)
	}
	if !reflect.DeepEqual(got.indexed, want.indexed) {
		t.Fatalf("tcp learned other index terms than simnet:\n%v\nvs\n%v", got.indexed, want.indexed)
	}
	t.Logf("messages by type on both transports: %v, of which learning: %v", want.calls, want.learn)
}
