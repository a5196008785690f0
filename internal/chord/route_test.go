package chord

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/wire"
)

const msgEcho = "test.echo"

// echoRing installs on every node an application handler that answers with
// the serving node's address, so a test sees who a routed message reached.
func echoRing(r *Ring) {
	for _, n := range r.Nodes() {
		addr := n.Addr()
		n.SetAppHandler(simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) (simnet.Message, error) {
			if _, enveloped := msg.Payload.(routed); enveloped {
				return simnet.Message{}, errors.New("application handler saw the envelope")
			}
			return simnet.Message{Type: msg.Type, Payload: Ref{Addr: addr}, Size: 1}, nil
		}))
	}
}

func echoMsg() simnet.Message {
	return simnet.Message{Type: msgEcho, Payload: Ref{Addr: "ping"}, Size: 8}
}

// servedBy unpacks echoRing's reply.
func servedBy(reply simnet.Message) simnet.Addr { return reply.Payload.(Ref).Addr }

// fastOracle is Ring.Owner for a ring with no failed node, in O(log n).
func fastOracle(r *Ring) func(chordid.ID) Ref {
	nodes := r.Nodes()
	ids := make([]chordid.ID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	return func(key chordid.ID) Ref { return nodes[successorIndex(ids, key)].Ref() }
}

// hintWatch wraps a transport and checks, on every delivery sent on a hint,
// the one thing that makes hints safe: a node serves it only when its own
// predecessor pointer puts the key in its arc.
type hintWatch struct {
	*simnet.Network // embedded whole, so the ring can still inject faults
	nodes           map[simnet.Addr]*Node

	mu        sync.Mutex
	enveloped int
	refused   int
	violation string
}

func (w *hintWatch) track(r *Ring) {
	for _, n := range r.Nodes() {
		w.nodes[n.Addr()] = n
	}
}

func (w *hintWatch) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	reply, err := w.Network.CallCtx(ctx, from, to, msg)
	env, ok := msg.Payload.(routed)
	if !ok || err != nil {
		return reply, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enveloped++
	if _, refused := reply.Payload.(notOwner); refused {
		w.refused++
		return reply, err
	}
	node := w.nodes[to]
	if pred := node.Predecessor(); pred.IsZero() || !env.Key.BetweenRightIncl(pred.ID, node.ID()) {
		w.violation = fmt.Sprintf("%s served key %s on a hint although its predecessor is %s", to, env.Key.Short(), pred)
	}
	return reply, err
}

func (w *hintWatch) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return w.CallCtx(context.Background(), from, to, msg)
}

// watchedRing builds an n-node ring named peer0… over a hint-watching
// transport with telemetry installed.
func watchedRing(t testing.TB, n int) (*Ring, *hintWatch, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	w := &hintWatch{Network: simnet.New(1), nodes: map[simnet.Addr]*Node{}}
	r := NewRing(w, Config{Telemetry: reg})
	if _, err := r.AddNodes("peer", n); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	r.Build()
	w.track(r)
	echoRing(r)
	return r, w, reg
}

// Property: on a correct ring every hint a node gives names the key's owner,
// and Route delivers to exactly the node Lookup resolves.
func TestHintsAndRouteMatchOracle(t *testing.T) {
	for _, size := range []int{1, 2, 3, 24, 1000, 4096} {
		r, w, reg := watchedRing(t, size)
		nodes := r.Nodes()
		byAddr := w.nodes
		oracle := fastOracle(r)
		rng := rand.New(rand.NewSource(int64(size)))
		hints := 0
		for i := 0; i < 5000; i++ {
			key := chordid.HashKey(fmt.Sprintf("route-%d-%d", size, i))
			start := nodes[rng.Intn(len(nodes))]
			want := oracle(key)
			if i < 20 {
				if o, _ := r.Owner(key); o.Ref() != want {
					t.Fatalf("N=%d: fast oracle %s, Ring.Owner %s", size, want, o.Ref())
				}
			}
			// Every answer along the hint-less path: a hint, when given, is the owner.
			for cur, step := start, 0; ; step++ {
				resp := cur.nextHop(nextHopReq{Key: key})
				if !resp.Hint.IsZero() {
					hints++
					if resp.Done {
						t.Fatalf("N=%d: %s answered Done with a hint", size, cur.Addr())
					}
					if resp.Hint != want {
						t.Fatalf("N=%d key %s: %s hints %s, owner is %s", size, key.Short(), cur.Addr(), resp.Hint, want)
					}
				}
				if resp.Done {
					break
				}
				if step > size {
					t.Fatalf("N=%d: hint walk does not end", size)
				}
				cur = byAddr[resp.Ref.Addr]
			}
			ref, _, err := start.Lookup(key)
			if err != nil || ref != want {
				t.Fatalf("N=%d: Lookup = %s, %v; oracle %s", size, ref, err, want)
			}
			reply, owner, _, err := start.Route(context.Background(), key, echoMsg(), nil, "")
			if err != nil {
				t.Fatalf("N=%d: Route: %v", size, err)
			}
			if owner != ref || servedBy(reply) != ref.Addr {
				t.Fatalf("N=%d key %s from %s: Route reached %s (owner %s), Lookup names %s", size, key.Short(), start.Addr(), servedBy(reply), owner, ref)
			}
		}
		if w.violation != "" {
			t.Fatalf("N=%d: %s", size, w.violation)
		}
		if w.refused != 0 || reg.Counter("chord.route.hint_rejected").Value() != 0 {
			t.Fatalf("N=%d: %d hints refused on a correct ring", size, w.refused)
		}
		if got := reg.Counter("chord.route.hinted").Value(); got != int64(w.enveloped) {
			t.Fatalf("N=%d: chord.route.hinted = %d, %d enveloped deliveries seen", size, got, w.enveloped)
		}
		if size >= 24 && (hints == 0 || w.enveloped == 0) {
			t.Fatalf("N=%d: %d hints given, %d followed — the mechanism is not firing", size, hints, w.enveloped)
		}
	}
}

// meanRoundTrips routes trials random keys from random nodes and returns the
// mean number of sequential round trips per delivery: the routing hops plus
// the delivery itself when it left the node.
func meanRoundTrips(t testing.TB, r *Ring, trials int) float64 {
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(11))
	total := 0
	for i := 0; i < trials; i++ {
		start := nodes[rng.Intn(len(nodes))]
		_, owner, hops, err := start.Route(context.Background(), chordid.HashKey(fmt.Sprintf("hopkey-%d", i)), echoMsg(), nil, "")
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		total += hops
		if owner.Addr != start.Addr() {
			total++
		}
	}
	return float64(total) / float64(trials)
}

func TestRouteRoundTripBound(t *testing.T) {
	for _, c := range []struct {
		size  int
		bound float64
	}{{64, 1.9}, {4096, 3.2}} {
		r, _, _ := watchedRing(t, c.size)
		mean := meanRoundTrips(t, r, 5000)
		t.Logf("N=%d: %.3f round trips per routed delivery", c.size, mean)
		if mean > c.bound {
			t.Fatalf("N=%d: %.3f round trips per routed delivery, bound %.1f — owner hints are not firing", c.size, mean, c.bound)
		}
	}
}

// routeAgainstLookup routes every key from a random node and requires,
// whatever state the ring is in, that each delivery is served by the node
// LookupCtx names and costs at most one round trip more than looking the
// owner up and calling it.
func routeAgainstLookup(t *testing.T, r *Ring, w *hintWatch, keys []chordid.ID) {
	t.Helper()
	alive := r.aliveNodes()
	rng := rand.New(rand.NewSource(5))
	for _, key := range keys {
		start := alive[rng.Intn(len(alive))]
		ref, lookupHops, err := start.LookupCtx(context.Background(), key, nil)
		if err != nil {
			t.Fatalf("LookupCtx: %v", err)
		}
		reply, owner, hops, err := start.Route(context.Background(), key, echoMsg(), nil, "")
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		if owner != ref || servedBy(reply) != ref.Addr {
			t.Fatalf("key %s from %s: Route reached %s, LookupCtx names %s", key.Short(), start.Addr(), servedBy(reply), ref)
		}
		if hops > lookupHops+1 {
			t.Fatalf("key %s from %s: Route spent %d routing round trips, Lookup %d — more than one wasted", key.Short(), start.Addr(), hops, lookupHops)
		}
	}
	if w.violation != "" {
		t.Fatal(w.violation)
	}
}

// keysIn returns the first count keys of a fixed random sequence that fall
// inside (a, b].
func keysIn(a, b chordid.ID, count int) []chordid.ID {
	keys := make([]chordid.ID, 0, count)
	for i := 0; len(keys) < count; i++ {
		if key := chordid.HashKey(fmt.Sprintf("arc-%d", i)); key.BetweenRightIncl(a, b) {
			keys = append(keys, key)
		}
	}
	return keys
}

func randomKeys(count int) []chordid.ID {
	keys := make([]chordid.ID, count)
	for i := range keys {
		keys[i] = chordid.HashKey(fmt.Sprintf("stale-%d", i))
	}
	return keys
}

// A joiner its successor has adopted (notify) but that no finger and no
// successor-list tail knows yet: hints still name the old owner, which now
// knows better and refuses.
func TestRouteStaleHintAfterJoin(t *testing.T) {
	r, w, reg := watchedRing(t, 64)
	boot := r.Nodes()[0]
	j, err := r.AddNode("joiner")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Join(boot); err != nil {
		t.Fatal(err)
	}
	j.stabilize() // learns its successor list and notifies the successor
	succ := w.nodes[j.Successor().Addr]
	if succ.Predecessor() != j.Ref() {
		t.Fatalf("successor %s did not adopt the joiner: pred %s", succ.Addr(), succ.Predecessor())
	}
	w.track(r)
	echoRing(r)

	// Keys of the joiner's new arc, which hints from two or more hops away
	// still place at succ, and random keys for the rest of the ring.
	var oldPred Ref
	for _, n := range r.Nodes() {
		if n != j && n.Successor() == succ.Ref() {
			oldPred = n.Ref()
		}
	}
	routeAgainstLookup(t, r, w, keysIn(oldPred.ID, j.ID(), 500))
	routeAgainstLookup(t, r, w, randomKeys(2000))
	if w.refused == 0 || reg.Counter("chord.route.hint_rejected").Value() != int64(w.refused) {
		t.Fatalf("hint_rejected = %d, refusals seen %d, want equal and non-zero", reg.Counter("chord.route.hint_rejected").Value(), w.refused)
	}
}

// A node that does not know its predecessor cannot vouch for any key.
func TestRouteHintedNodeWithoutPredecessor(t *testing.T) {
	r, w, reg := watchedRing(t, 64)
	nodes := r.Nodes()
	for i := 0; i < len(nodes); i += 4 {
		nodes[i].mu.Lock()
		nodes[i].pred = Ref{}
		nodes[i].mu.Unlock()
	}
	routeAgainstLookup(t, r, w, randomKeys(4000))
	if w.refused == 0 || reg.Counter("chord.route.hint_rejected").Value() != int64(w.refused) {
		t.Fatalf("hint_rejected = %d, refusals seen %d, want equal and non-zero", reg.Counter("chord.route.hint_rejected").Value(), w.refused)
	}
}

// A hinted node that failed after the tables were built is excluded like any
// dead owner, without a message to it.
func TestRouteHintedNodeFailed(t *testing.T) {
	r, w, reg := watchedRing(t, 64)
	nodes := r.Nodes()
	for i := 0; i < len(nodes); i += 8 {
		r.Fail(nodes[i])
	}
	routeAgainstLookup(t, r, w, randomKeys(4000))
	if reg.Counter("chord.route.hint_unreachable").Value() == 0 {
		t.Fatal("chord.route.hint_unreachable did not tick")
	}
}

// A request with exclusions never carries a hint, and a walk that has
// excluded someone never stops at one.
func TestExclusionsDisableHints(t *testing.T) {
	r, _, _ := watchedRing(t, 64)
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		key := chordid.HashKey(fmt.Sprintf("excl-%d", i))
		asked := nodes[rng.Intn(len(nodes))]
		excluded := nodes[rng.Intn(len(nodes))].ID()
		if resp := asked.nextHop(nextHopReq{Key: key, Exclude: []chordid.ID{excluded}}); !resp.Hint.IsZero() {
			t.Fatalf("%s gave hint %s to a request with exclusions", asked.Addr(), resp.Hint)
		}
		start := nodes[rng.Intn(len(nodes))]
		want, _, err := start.LookupExcluding(context.Background(), key, []chordid.ID{excluded}, nil)
		if err != nil {
			t.Fatalf("LookupExcluding: %v", err)
		}
		walk := start.newWalk(start.ref, key, []chordid.ID{excluded})
		walk.hints = true
		owner, byHint, err := start.advance(context.Background(), &walk, nil)
		if err != nil || byHint || owner != want {
			t.Fatalf("walk with exclusions stopped at %s (hinted %v, %v), LookupExcluding names %s", owner, byHint, err, want)
		}
	}
}

func TestRouteDeliveryErrorIsNotRepeated(t *testing.T) {
	net := simnet.New(1)
	r := NewRing(net, Config{})
	if _, err := r.AddNodes("peer", 64); err != nil {
		t.Fatal(err)
	}
	r.Build()
	echoRing(r)
	nodes := r.Nodes()
	key := chordid.HashKey("dropped")
	owner, _ := r.Owner(key)
	start := nodes[0]
	if start == owner {
		start = nodes[1]
	}
	net.ResetStats()
	net.DropCalls(owner.Addr(), 1_000_000)
	_, got, _, err := start.Route(context.Background(), key, echoMsg(), nil, "")
	if err == nil {
		t.Fatal("Route to a dropping owner succeeded")
	}
	if got != owner.Ref() {
		t.Fatalf("failed delivery reports owner %s, want %s", got, owner.Ref())
	}
	if dropped := net.Stats().Dropped; dropped != 1 {
		t.Fatalf("the owner was sent %d messages, want exactly 1", dropped)
	}
}

func TestRouteCanceledContext(t *testing.T) {
	r, _, _ := watchedRing(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, n := range r.Nodes()[:8] {
		_, _, _, err := n.Route(ctx, chordid.HashKey(fmt.Sprintf("cancel-%d", i)), echoMsg(), nil, "")
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Route under a canceled context: %v, want context.Canceled", err)
		}
	}
}

func TestRouteAnnotatesSpan(t *testing.T) {
	r, _, reg := watchedRing(t, 64)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		tr := reg.StartTrace("route-test")
		if _, _, _, err := r.Nodes()[i%64].Route(context.Background(), chordid.HashKey(fmt.Sprintf("span-%d", i)), echoMsg(), tr.Root(), ""); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var hinted string
		for _, a := range tr.Snapshot().Root.Attrs {
			if a.Key == "hinted" {
				hinted = fmt.Sprint(a.Value)
			}
		}
		if hinted != "true" && hinted != "false" {
			t.Fatalf("route span annotated hinted=%q", hinted)
		}
		seen[hinted] = true
	}
	if !seen["true"] {
		t.Fatal("no route on a healthy 64-node ring was annotated hinted=true")
	}
	// A route on the caller's hint says so, and says when the hint was refused.
	start := r.Nodes()[0]
	key := chordid.HashKey("span-caller")
	want, _, err := start.Lookup(key)
	if err != nil || want.Addr == start.Addr() || want.Addr == start.Successor().Addr {
		t.Fatalf("Lookup = %s, %v: want a key owned two or more nodes past %s", want, err, start.Addr())
	}
	for hint, annotation := range map[simnet.Addr]string{want.Addr: "caller", start.Successor().Addr: "rejected"} {
		tr := reg.StartTrace("route-test")
		if _, owner, _, err := start.Route(context.Background(), key, echoMsg(), tr.Root(), hint); err != nil || owner != want {
			t.Fatalf("Route hinted %s = owner %s, %v; want %s", hint, owner, err, want)
		}
		tr.Finish()
		var hinted string
		for _, a := range tr.Snapshot().Root.Attrs {
			if a.Key == "hinted" {
				hinted = fmt.Sprint(a.Value)
			}
		}
		if hinted != annotation {
			t.Fatalf("route hinted %s annotated hinted=%q, want %q", hint, hinted, annotation)
		}
	}
}

// routeStats routes key from start with the caller's hint and returns who
// served it, the owner and hops Route reported, and what the network counted
// on the route's behalf.
func routeStats(t *testing.T, w *hintWatch, start *Node, key chordid.ID, hint simnet.Addr) (simnet.Addr, Ref, int, simnet.Stats) {
	t.Helper()
	w.ResetStats()
	reply, owner, hops, err := start.Route(context.Background(), key, echoMsg(), nil, hint)
	if err != nil {
		t.Fatalf("Route from %s hinted %q: %v", start.Addr(), hint, err)
	}
	return servedBy(reply), owner, hops, w.Stats()
}

// A hint that names the owner makes the route that one message.
func TestRouteCallerHintFresh(t *testing.T) {
	r, w, reg := watchedRing(t, 64)
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		key := chordid.HashKey(fmt.Sprintf("fresh-%d", i))
		start := nodes[rng.Intn(len(nodes))]
		want, _, err := start.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if want.Addr == start.Addr() {
			continue
		}
		served, owner, hops, st := routeStats(t, w, start, key, want.Addr)
		if served != want.Addr || owner != want || hops != 0 {
			t.Fatalf("key %s from %s hinted %s: served by %s, owner %s, %d hops; Lookup names %s", key.Short(), start.Addr(), want.Addr, served, owner, hops, want)
		}
		if st.CallsByType[msgNextHop] != 0 || st.Calls != 1 || st.CallsByDest[want.Addr] != 1 {
			t.Fatalf("key %s from %s hinted %s: %d messages, %d of them next_hop; want the delivery alone", key.Short(), start.Addr(), want.Addr, st.Calls, st.CallsByType[msgNextHop])
		}
	}
	if w.violation != "" {
		t.Fatal(w.violation)
	}
	if got := reg.Counter("chord.route.hinted").Value(); got == 0 || got != int64(w.enveloped) || w.refused != 0 {
		t.Fatalf("chord.route.hinted = %d, %d enveloped deliveries seen, %d refused", got, w.enveloped, w.refused)
	}
}

// A hint made stale by a join that took the key's arc costs exactly the one
// refused round trip, after which the walk finds the owner Lookup names.
func TestRouteCallerHintStaleAfterJoin(t *testing.T) {
	r, w, reg := watchedRing(t, 64)
	keys := randomKeys(300)
	before := make([]Ref, len(keys))
	for i, key := range keys {
		before[i], _, _ = r.Nodes()[0].Lookup(key)
	}
	for i := 0; i < 16; i++ {
		if _, err := r.AddNode(fmt.Sprintf("joiner%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Build()
	w.track(r)
	echoRing(r)
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(4))
	moved := 0
	for i, key := range keys {
		start := nodes[rng.Intn(len(nodes))]
		want, lookupHops, err := start.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if want == before[i] || before[i].Addr == start.Addr() || want.Addr == start.Addr() {
			continue
		}
		moved++
		rejected, refused := reg.Counter("chord.route.hint_rejected").Value(), w.refused
		served, owner, hops, st := routeStats(t, w, start, key, before[i].Addr)
		if served != want.Addr || owner != want {
			t.Fatalf("key %s from %s hinted %s: served by %s, owner %s; Lookup names %s", key.Short(), start.Addr(), before[i].Addr, served, owner, want)
		}
		if w.refused != refused+1 || reg.Counter("chord.route.hint_rejected").Value() != rejected+1 {
			t.Fatalf("key %s: %d refusals, hint_rejected +%d; want one each", key.Short(), w.refused-refused, reg.Counter("chord.route.hint_rejected").Value()-rejected)
		}
		// After the refusal the walk runs hints off: a plain lookup and the
		// bare delivery, on top of the spent round trip.
		if hops != lookupHops+1 || st.Calls != int64(lookupHops)+2 || st.CallsByDest[before[i].Addr] < 1 {
			t.Fatalf("key %s from %s: %d hops and %d messages after a stale hint, Lookup takes %d hops", key.Short(), start.Addr(), hops, st.Calls, lookupHops)
		}
	}
	if moved < 10 {
		t.Fatalf("only %d keys changed owner: the joins moved too little", moved)
	}
	if w.violation != "" {
		t.Fatal(w.violation)
	}
}

// A hint that is not alive is never sent to; the walk excludes and fails over
// as it does without a hint.
func TestRouteCallerHintNotAlive(t *testing.T) {
	r, w, reg := watchedRing(t, 64)
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		key := chordid.HashKey(fmt.Sprintf("dead-%d", i))
		dead, _ := r.Owner(key)
		start := nodes[rng.Intn(len(nodes))]
		if start == dead {
			continue
		}
		r.Fail(dead)
		want, _, err := start.LookupExcluding(context.Background(), key, []chordid.ID{dead.ID()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		unreachable := reg.Counter("chord.route.hint_unreachable")
		base := unreachable.Value()
		_, plain, plainHops, plainSt := routeStats(t, w, start, key, "")
		byWalk := unreachable.Value() - base // a node on the way may hint at the dead owner too
		served, owner, hops, st := routeStats(t, w, start, key, dead.Addr())
		if served != want.Addr || owner != want || plain != want {
			t.Fatalf("key %s from %s hinted dead %s: served by %s, owner %s (unhinted %s); LookupExcluding names %s", key.Short(), start.Addr(), dead.Addr(), served, owner, plain, want)
		}
		if st.CallsByDest[dead.Addr()] != 0 {
			t.Fatalf("key %s: %d messages addressed to the dead hint %s", key.Short(), st.CallsByDest[dead.Addr()], dead.Addr())
		}
		if hops != plainHops || st.Calls != plainSt.Calls {
			t.Fatalf("key %s: %d hops / %d messages with a dead hint, %d / %d without", key.Short(), hops, st.Calls, plainHops, plainSt.Calls)
		}
		if got := unreachable.Value() - base - byWalk; got != byWalk+1 {
			t.Fatalf("key %s: hint_unreachable +%d with the caller's dead hint, +%d without; want one more", key.Short(), got, byWalk)
		}
		r.Recover(dead)
	}
}

// No hint, and a hint that is the routing node itself, are today's route
// message for message.
func TestRouteCallerHintSelfOrEmpty(t *testing.T) {
	rec := &recorder{Transport: simnet.New(1)}
	r := NewRing(rec, Config{})
	if _, err := r.AddNodes("peer", 64); err != nil {
		t.Fatal(err)
	}
	r.Build()
	echoRing(r)
	nodes := r.Nodes()
	for i := 0; i < 300; i++ {
		key := chordid.HashKey(fmt.Sprintf("self-%d", i))
		start := nodes[i%len(nodes)]
		route := func(hint simnet.Addr) ([]simnet.Message, Ref, int) {
			rec.msgs = nil
			_, owner, hops, err := start.Route(context.Background(), key, echoMsg(), nil, hint)
			if err != nil {
				t.Fatal(err)
			}
			return rec.msgs, owner, hops
		}
		msgs, owner, hops := route("")
		selfMsgs, selfOwner, selfHops := route(start.Addr())
		if !reflect.DeepEqual(msgs, selfMsgs) || owner != selfOwner || hops != selfHops {
			t.Fatalf("key %s from %s: hinting the node itself changed the route:\n%v\nvs\n%v", key.Short(), start.Addr(), selfMsgs, msgs)
		}
		want, lookupHops, _ := start.Lookup(key)
		if owner != want || hops > lookupHops {
			t.Fatalf("key %s from %s: unhinted route reached %s in %d hops, Lookup %s in %d", key.Short(), start.Addr(), owner, hops, want, lookupHops)
		}
	}
}

// recorder keeps every message that crosses it, request and reply.
type recorder struct {
	simnet.Transport
	mu   sync.Mutex
	msgs []simnet.Message
}

func (rec *recorder) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	reply, err := rec.Transport.CallCtx(ctx, from, to, msg)
	rec.mu.Lock()
	rec.msgs = append(rec.msgs, msg)
	if err == nil {
		rec.msgs = append(rec.msgs, reply)
	}
	rec.mu.Unlock()
	return reply, err
}

func (rec *recorder) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return rec.CallCtx(context.Background(), from, to, msg)
}

// The simulated sizes the byte counts are built from must track what the
// binary codec really writes: per excluded ID, per hint, per envelope.
func TestSimulatedSizesTrackEncodedLength(t *testing.T) {
	rec := &recorder{Transport: simnet.New(1)}
	r := NewRing(rec, Config{})
	if _, err := r.AddNodes("peer", 64); err != nil {
		t.Fatal(err)
	}
	r.Build()
	echoRing(r)
	nodes := r.Nodes()
	for i := 0; i < 200; i++ {
		key := chordid.HashKey(fmt.Sprintf("size-%d", i))
		var exclude []chordid.ID
		for j := 0; j < i%9; j++ {
			exclude = append(exclude, nodes[(i+7*j)%len(nodes)].ID())
		}
		if _, _, err := nodes[i%len(nodes)].LookupExcluding(context.Background(), key, exclude, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := nodes[i%len(nodes)].Route(context.Background(), key, echoMsg(), nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Allowed distance between Size and the encoded length: the 2-byte kind,
	// a count or flag byte, and an address that is not exactly refSize−16
	// bytes long (peer0…peer63 with its length byte: 6–7 of the 8 assumed).
	const slack = 8
	inner, _ := wire.AppendBinary(nil, echoMsg().Payload)
	kinds := map[string]int{}
	for _, m := range rec.msgs {
		var what string
		want := 0
		switch p := m.Payload.(type) {
		case nextHopReq:
			what = fmt.Sprintf("nextHopReq/%d-excluded", len(p.Exclude))
		case nextHopResp:
			what = "nextHopResp"
			if !p.Hint.IsZero() {
				what = "nextHopResp/hint"
			}
		case routed:
			// The application's own estimate is not under test, only what
			// the envelope adds to it.
			what, want = "routed", len(inner)-echoMsg().Size
		default:
			continue
		}
		enc, ok := wire.AppendBinary(nil, m.Payload)
		if !ok {
			t.Fatalf("%s has no binary codec", what)
		}
		kinds[what]++
		if d := len(enc) - want - m.Size; d < -slack || d > slack {
			t.Fatalf("%s: Size %d, %d bytes on the wire", what, m.Size, len(enc)-want)
		}
	}
	for _, what := range []string{"nextHopReq/0-excluded", "nextHopReq/8-excluded", "nextHopResp", "nextHopResp/hint", "routed"} {
		if kinds[what] == 0 {
			t.Fatalf("no %s message was exchanged", what)
		}
	}
}
