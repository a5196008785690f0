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
			if err := n.ShareCtx(context.Background(), peers[i%len(peers)], fmt.Sprintf("doc-%d", i), text); err != nil {
				t.Fatalf("Share doc-%d: %v", i, err)
			}
		}
		var rankings [][]hit
		collect := func(peer, q string) {
			res, err := n.SearchCtx(context.Background(), peer, q, 10)
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
		if _, err := n.LearnCtx(context.Background()); err != nil {
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
	bytes map[string]int // request plus reply Size
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

func (nt *namedTransport) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	reply, err := nt.inner.CallCtx(ctx, nt.toReal(from), nt.toReal(to), msg)
	if from != to {
		nt.mu.Lock()
		nt.calls[msg.Type]++
		nt.bytes[msg.Type] += msg.Size + reply.Size
		nt.mu.Unlock()
	}
	return reply, err
}

// TestTransportTwinMessageCounts runs share, search, a protocol join, learn,
// search again and one anti-entropy round on one replicated ring over the
// simulator and over the socket transport, and requires the same rankings and
// the same number of messages and bytes of every type — those of the learning
// iteration and of the repair round on their own as well, and those of the
// searches while the ring is half joined — the same index terms learned and
// the same replica indexes after the repair. A byte is a request's or reply's
// Size: over sockets a receiver reads it off the frame's payload, so equal
// bytes mean both ends bill what the sender's wire.Size did. The learning iteration's
// polls go to each holder of record in one batch and the items a holder
// refuses go round on the ring; the repair round pushes the joiner's
// successor the replica lists of the arc it handed off, block-compressed, so
// this also carries sprite.repair.push across a socket. Routed
// deliveries travel inside chord's envelope, and the half-stabilized join
// leaves nodes that still hint at the joiner's successor for its arc, and that
// successor refusing the arc's items in a poll batch and the arc's terms in a
// get_postings the searchers address to it from their own nodes' state, so
// this is also the check that the envelope, all three refusals and the hint in
// a hop answer cross a socket meaning what they mean in process.
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
		join     map[string]int // the share of calls the searches of the half-joined ring sent
		learn    map[string]int // the share of calls the learning iteration sent
		repair   map[string]int // the share of calls the anti-entropy round sent
		indexed  map[index.DocID][]string
		replicas []core.IndexEntry
	}
	run := func(name string, inner simnet.Transport, closeFn func()) outcome {
		defer closeFn()
		nt := &namedTransport{inner: inner, real: map[simnet.Addr]simnet.Addr{}, logical: map[simnet.Addr]simnet.Addr{}, calls: map[string]int{}, bytes: map[string]int{}}
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
		n, err := core.NewNetwork(ring, core.Config{InitialTerms: 3, TermsPerIteration: 2, MaxIndexTerms: 8, ReplicationFactor: 2, Telemetry: reg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		peer := func(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("peer%d", i%peers)) }
		for i, tf := range docs {
			if err := n.ShareCtx(context.Background(), peer(i), corpus.NewDocument(index.DocID(fmt.Sprintf("doc-%d", i)), tf)); err != nil {
				t.Fatalf("%s: Share doc-%d: %v", name, i, err)
			}
		}
		var out outcome
		search := func(from simnet.Addr, q []string) {
			rl, err := n.SearchCtx(context.Background(), from, q, 10)
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
		if err := n.ShareCtx(context.Background(), peer(3), corpus.NewDocument("doc-arc", arcTF)); err != nil {
			t.Fatalf("%s: Share doc-arc: %v", name, err)
		}
		counters := []string{"chord.route.hinted", "chord.route.hint_rejected", "sprite.fetch.rerouted"}
		tally := func() map[string]int {
			nt.mu.Lock()
			defer nt.mu.Unlock()
			calls := map[string]int{}
			for typ, c := range nt.calls {
				calls[typ] = c
			}
			for typ, b := range nt.bytes {
				calls[typ+" bytes"] = b
			}
			for _, c := range counters {
				calls[c] = int(reg.Counter(c).Value())
			}
			return calls
		}
		since := func(prior map[string]int) map[string]int {
			calls := tally()
			for typ := range calls {
				calls[typ] -= prior[typ]
			}
			return calls
		}
		prior := tally()
		for _, term := range arcTerms {
			for i := 0; i < peers; i += 3 {
				search(peer(i), []string{term})
			}
		}
		out.join = since(prior)
		prior = tally()
		if _, err := n.LearnAllCtx(context.Background()); err != nil {
			t.Fatalf("%s: LearnAll: %v", name, err)
		}
		out.learn = since(prior)
		out.indexed = map[index.DocID][]string{}
		for _, id := range n.Documents() {
			out.indexed[id], _ = n.IndexedTerms(id)
		}
		for i, q := range queries {
			search(peer(i+7), q)
		}
		// Let the ring settle around the joiner, then repair: the joiner now
		// serves its arc, and its successor — which held that arc as primary —
		// holds no replica of it.
		ring.StabilizeLists(64)
		prior = tally()
		n.Repair()
		out.repair = since(prior)
		out.replicas = n.ReplicaSnapshot()
		out.calls = tally()
		return out
	}

	want := run("simnet", simnet.New(7), func() {})
	if want.calls["chord.route.hinted"] == 0 || want.calls["chord.route.hint_rejected"] == 0 {
		t.Fatalf("simnet run exchanged %v — the workload follows or refuses no owner hint", want.calls)
	}
	// The learning iteration polls the holders of record directly; only the
	// items the joiner's successor refuses walk the ring (each refused once more
	// on its hint), so its next_hop traffic is what those and its publishes
	// need (at most two walks' worth each).
	if l := want.learn; l["sprite.poll"] == 0 || l["chord.route.hint_rejected"] == 0 || l["chord.next_hop"] > 4*(l["sprite.publish"]+l["chord.route.hint_rejected"]) {
		t.Fatalf("simnet learning iteration exchanged %v — its polls are not going straight to the holders, or none was refused", l)
	}
	// The searches of the joiner's arc go to the successor the searchers'
	// own nodes still name for it, in one get_postings each, and it refuses
	// them: each term then goes round on the ring.
	if j := want.join; j["sprite.fetch.rerouted"] == 0 || j["sprite.get_postings"] <= j["sprite.fetch.rerouted"] {
		t.Fatalf("simnet searches of the half-joined ring exchanged %v — no batched fetch was refused", j)
	}
	if want.repair["sprite.repair.push"] == 0 || len(want.replicas) == 0 {
		t.Fatalf("simnet repair round exchanged %v over %d replica entries — it pushed no replica list", want.repair, len(want.replicas))
	}
	tcp := transport.New()
	got := run("tcp", tcp, tcp.Close)
	if !reflect.DeepEqual(got.rankings, want.rankings) {
		t.Fatalf("tcp rankings differ from simnet:\n%v\nvs\n%v", got.rankings, want.rankings)
	}
	if !reflect.DeepEqual(got.calls, want.calls) || !reflect.DeepEqual(got.join, want.join) || !reflect.DeepEqual(got.learn, want.learn) || !reflect.DeepEqual(got.repair, want.repair) {
		t.Fatalf("tcp message counts or bytes differ from simnet:\n%v, half-joined searches %v, learning %v, repair %v\nvs\n%v, half-joined searches %v, learning %v, repair %v",
			got.calls, got.join, got.learn, got.repair, want.calls, want.join, want.learn, want.repair)
	}
	if !reflect.DeepEqual(got.replicas, want.replicas) {
		t.Fatalf("tcp replica indexes differ from simnet after the repair round:\n%v\nvs\n%v", got.replicas, want.replicas)
	}
	if !reflect.DeepEqual(got.indexed, want.indexed) {
		t.Fatalf("tcp learned other index terms than simnet:\n%v\nvs\n%v", got.indexed, want.indexed)
	}
	t.Logf("messages and bytes by type on both transports: %v, of which half-joined searches: %v, learning: %v, repair: %v", want.calls, want.join, want.learn, want.repair)
}
