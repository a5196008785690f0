package chord

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
)

func buildRing(t testing.TB, n int, cfg Config) *Ring {
	t.Helper()
	net := simnet.New(42)
	r := NewRing(net, cfg)
	if _, err := r.AddNodes("peer", n); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	r.Build()
	return r
}

func TestSingleNodeRing(t *testing.T) {
	r := buildRing(t, 1, Config{})
	n := r.Nodes()[0]
	if n.Successor().ID != n.ID() {
		t.Fatal("single node is not its own successor")
	}
	owner, hops, err := n.Lookup(chordid.HashKey("anything"))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if owner.ID != n.ID() {
		t.Fatalf("owner = %v, want self", owner)
	}
	if hops != 0 {
		t.Fatalf("hops = %d, want 0 on singleton ring", hops)
	}
}

func TestBuildWiresSuccessorsCorrectly(t *testing.T) {
	r := buildRing(t, 16, Config{})
	nodes := r.Nodes()
	for i, n := range nodes {
		want := nodes[(i+1)%len(nodes)].ID()
		if got := n.Successor().ID; got != want {
			t.Fatalf("node %d successor = %s, want %s", i, got, want)
		}
		wantPred := nodes[(i+len(nodes)-1)%len(nodes)].ID()
		if got := n.Predecessor().ID; got != wantPred {
			t.Fatalf("node %d predecessor = %s, want %s", i, got, wantPred)
		}
	}
	if !r.Converged() {
		t.Fatal("Build did not converge the ring")
	}
}

func TestBuildSuccessorListLength(t *testing.T) {
	r := buildRing(t, 10, Config{SuccessorListLen: 4})
	for _, n := range r.Nodes() {
		sl := n.SuccessorList()
		if len(sl) != 4 {
			t.Fatalf("successor list len = %d, want 4", len(sl))
		}
		for i, s := range sl {
			if s.ID == n.ID() {
				t.Fatalf("self appears in own successor list at %d", i)
			}
		}
	}
	// Successor list cannot exceed n-1 distinct other nodes.
	r2 := buildRing(t, 3, Config{SuccessorListLen: 8})
	for _, n := range r2.Nodes() {
		if got := len(n.SuccessorList()); got != 2 {
			t.Fatalf("successor list len = %d on 3-node ring, want 2", got)
		}
	}
}

func TestLookupMatchesOracle(t *testing.T) {
	r := buildRing(t, 64, Config{})
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		key := chordid.HashKey(fmt.Sprintf("key-%d", i))
		from := nodes[rng.Intn(len(nodes))]
		got, _, err := from.Lookup(key)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", key.Short(), err)
		}
		want, ok := r.Owner(key)
		if !ok {
			t.Fatal("oracle has no owner")
		}
		if got.ID != want.ID() {
			t.Fatalf("Lookup(%s) = %s, oracle says %s", key.Short(), got.ID.Short(), want.ID().Short())
		}
	}
}

func TestLookupCountsRPCs(t *testing.T) {
	r := buildRing(t, 32, Config{})
	nodes := r.Nodes()
	sim := r.Net().(*simnet.Network)
	sim.ResetStats()
	_, hops, err := nodes[0].Lookup(chordid.HashKey("count-me"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Stats().CallsByType["chord.next_hop"]; got != int64(hops) {
		t.Fatalf("reported %d hops but network saw %d next_hop RPCs", hops, got)
	}
}

func TestJoinAllConverges(t *testing.T) {
	net := simnet.New(5)
	r := NewRing(net, Config{})
	if _, err := r.AddNodes("j", 20); err != nil {
		t.Fatal(err)
	}
	rounds, err := joinAll(r, 200)
	if err != nil {
		t.Fatalf("joinAll: %v", err)
	}
	if !r.Converged() {
		t.Fatalf("ring not converged after %d rounds", rounds)
	}
	// After convergence + finger repair, lookups must match the oracle.
	r.RepairFingers()
	nodes := r.Nodes()
	for i := 0; i < 50; i++ {
		key := chordid.HashKey(fmt.Sprintf("jk-%d", i))
		got, _, err := nodes[i%len(nodes)].Lookup(key)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		want, _ := r.Owner(key)
		if got.ID != want.ID() {
			t.Fatalf("post-join lookup mismatch for %s", key.Short())
		}
	}
}

func TestLateJoinThenStabilize(t *testing.T) {
	net := simnet.New(6)
	r := NewRing(net, Config{})
	if _, err := r.AddNodes("base", 8); err != nil {
		t.Fatal(err)
	}
	r.Build()
	newbie, err := r.AddNode("latecomer")
	if err != nil {
		t.Fatal(err)
	}
	if err := newbie.Join(r.Nodes()[0]); err != nil {
		t.Fatalf("Join: %v", err)
	}
	r.Stabilize(100)
	if !r.Converged() {
		t.Fatal("ring did not absorb late joiner")
	}
	r.RepairFingers()
	// The newcomer must now own the keys that hash between its predecessor
	// and itself.
	key := newbie.ID() // a key equal to the node ID is owned by that node
	got, _, err := r.Nodes()[0].Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != newbie.ID() {
		t.Fatalf("latecomer does not own its own ID: owner = %s", got.ID.Short())
	}
}

func TestLookupRoutesAroundFailedNode(t *testing.T) {
	r := buildRing(t, 32, Config{SuccessorListLen: 6})
	nodes := r.Nodes()
	key := chordid.HashKey("failover-key")
	owner, _ := r.Owner(key)

	r.Fail(owner)
	var from *Node
	for _, n := range nodes {
		if n != owner {
			from = n
			break
		}
	}
	got, _, err := from.Lookup(key)
	if err != nil {
		t.Fatalf("Lookup after failure: %v", err)
	}
	wantAfter, _ := r.Owner(key) // oracle over alive nodes
	if got.ID != wantAfter.ID() {
		t.Fatalf("failover owner = %s, want %s", got.ID.Short(), wantAfter.ID().Short())
	}
	if got.ID == owner.ID() {
		t.Fatal("lookup returned the failed node")
	}
}

// TestNonsenseAnswersAreNotTrusted: a live node that answers every overlay
// request with some other payload is routed around like a dead one — a
// lookup excludes it and still names an owner — and a stabilization round
// that asks it for its state keeps the asker's list; nothing panics.
func TestNonsenseAnswersAreNotTrusted(t *testing.T) {
	r := buildRing(t, 16, Config{})
	liar := r.Nodes()[5]
	r.Net().Register(liar.Addr(), simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "nonsense", Payload: Ref{Addr: "nonsense"}, Size: 1}, nil
	}))
	for i := 0; i < 200; i++ {
		if _, _, err := r.Nodes()[i%16].Lookup(chordid.HashKey(fmt.Sprintf("liar-%d", i))); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	before := r.Nodes()[4].SuccessorList()
	r.Stabilize(2)
	if got := r.Nodes()[4].SuccessorList(); !reflect.DeepEqual(got, before) {
		t.Fatalf("the liar's predecessor changed its successor list %v to %v", before, got)
	}
}

func TestLookupSurvivesMultipleFailures(t *testing.T) {
	r := buildRing(t, 48, Config{SuccessorListLen: 8})
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(3))
	// Fail 25% of nodes (below the successor-list tolerance with high
	// probability).
	failed := map[*Node]bool{}
	for len(failed) < 12 {
		n := nodes[rng.Intn(len(nodes))]
		if !failed[n] {
			failed[n] = true
			r.Fail(n)
		}
	}
	var from *Node
	for _, n := range nodes {
		if !failed[n] {
			from = n
			break
		}
	}
	ok := 0
	for i := 0; i < 100; i++ {
		key := chordid.HashKey(fmt.Sprintf("multi-fail-%d", i))
		got, _, err := from.Lookup(key)
		if err != nil {
			continue
		}
		want, _ := r.Owner(key)
		if got.ID == want.ID() {
			ok++
		}
	}
	if ok < 95 {
		t.Fatalf("only %d/100 lookups reached the correct live owner", ok)
	}
}

func TestStabilizeRepairsAfterFailure(t *testing.T) {
	net := simnet.New(8)
	r := NewRing(net, Config{SuccessorListLen: 4})
	if _, err := r.AddNodes("s", 12); err != nil {
		t.Fatal(err)
	}
	r.Build()
	nodes := r.Nodes()
	r.Fail(nodes[3])
	r.Fail(nodes[7])
	r.Stabilize(100)
	if !r.Converged() {
		t.Fatal("stabilization did not repair ring after 2 failures")
	}
}

func TestRecoverRejoins(t *testing.T) {
	net := simnet.New(9)
	r := NewRing(net, Config{SuccessorListLen: 4})
	if _, err := r.AddNodes("rc", 10); err != nil {
		t.Fatal(err)
	}
	r.Build()
	victim := r.Nodes()[4]
	r.Fail(victim)
	r.Stabilize(100)
	if !r.Converged() {
		t.Fatal("ring did not converge after failure")
	}
	r.Recover(victim)
	// The recovered node's state is stale; let it re-stabilize.
	r.Stabilize(200)
	if !r.Converged() {
		t.Fatal("ring did not reabsorb recovered node")
	}
}

func TestLeave(t *testing.T) {
	net := simnet.New(10)
	r := NewRing(net, Config{SuccessorListLen: 4})
	if _, err := r.AddNodes("lv", 8); err != nil {
		t.Fatal(err)
	}
	r.Build()
	gone := r.Nodes()[2]
	r.Leave(gone)
	if r.Size() != 7 {
		t.Fatalf("Size = %d after leave, want 7", r.Size())
	}
	r.Stabilize(100)
	if !r.Converged() {
		t.Fatal("ring did not heal after graceful leave")
	}
}

func TestAddNodeCollision(t *testing.T) {
	net := simnet.New(1)
	r := NewRing(net, Config{})
	if _, err := r.AddNode("same"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddNode("same"); err == nil {
		t.Fatal("duplicate node name accepted")
	}
}

func TestAppHandlerDispatch(t *testing.T) {
	net := simnet.New(1)
	r := NewRing(net, Config{})
	a, _ := r.AddNode("appA")
	b, _ := r.AddNode("appB")
	r.Build()

	b.SetAppHandler(simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		if msg.Type != "sprite.test" {
			t.Errorf("app handler saw %q", msg.Type)
		}
		return simnet.Message{Type: "sprite.test.ok", Size: 1}, nil
	}))
	reply, err := net.CallCtx(context.Background(), a.Addr(), b.Addr(), simnet.Message{Type: "sprite.test", Size: 1})
	if err != nil {
		t.Fatalf("app call: %v", err)
	}
	if reply.Type != "sprite.test.ok" {
		t.Fatalf("reply = %+v", reply)
	}
	// Without a handler the node must reject unknown types.
	if _, err := net.CallCtx(context.Background(), b.Addr(), a.Addr(), simnet.Message{Type: "sprite.test"}); err == nil {
		t.Fatal("node without app handler accepted app message")
	}
}

func TestOwnerOracleSkipsDeadNodes(t *testing.T) {
	r := buildRing(t, 8, Config{})
	key := chordid.HashKey("oracle-key")
	before, _ := r.Owner(key)
	r.Fail(before)
	after, ok := r.Owner(key)
	if !ok {
		t.Fatal("oracle found no owner")
	}
	if after.ID() == before.ID() {
		t.Fatal("oracle returned a dead node")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SuccessorListLen != 4 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestRefString(t *testing.T) {
	var zero Ref
	if zero.String() != "<nil>" {
		t.Fatalf("zero Ref String = %q", zero.String())
	}
	r := Ref{ID: chordid.HashKey("x"), Addr: "x"}
	if r.IsZero() {
		t.Fatal("non-zero ref reported zero")
	}
}

func TestLookupDeterministic(t *testing.T) {
	r := buildRing(t, 32, Config{})
	n := r.Nodes()[5]
	key := chordid.HashKey("determinism")
	first, firstHops, err := n.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, hops, err := n.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != first || hops != firstHops {
			t.Fatalf("lookup %d: (%v,%d) != (%v,%d)", i, got, hops, first, firstHops)
		}
	}
}

func TestConcurrentLookups(t *testing.T) {
	r := buildRing(t, 64, Config{})
	nodes := r.Nodes()
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				key := chordid.HashKey(fmt.Sprintf("conc-%d-%d", w, i))
				got, _, err := nodes[(w*7+i)%len(nodes)].Lookup(key)
				if err != nil {
					errs <- err
					return
				}
				want, _ := r.Owner(key)
				if got.ID != want.ID() {
					errs <- fmt.Errorf("lookup mismatch for %s", key.Short())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBuildIdempotent(t *testing.T) {
	r := buildRing(t, 12, Config{})
	before := map[string]Ref{}
	for _, n := range r.Nodes() {
		before[string(n.Addr())] = n.Successor()
	}
	r.Build()
	for _, n := range r.Nodes() {
		if n.Successor() != before[string(n.Addr())] {
			t.Fatal("Build is not idempotent")
		}
	}
}

// Property: the successor list of every node is the next r alive nodes in
// ring order.
func TestSuccessorListMatchesOracle(t *testing.T) {
	r := buildRing(t, 20, Config{SuccessorListLen: 5})
	nodes := r.Nodes()
	for i, n := range nodes {
		sl := n.SuccessorList()
		for j, s := range sl {
			want := nodes[(i+j+1)%len(nodes)].ID()
			if s.ID != want {
				t.Fatalf("node %d successor[%d] mismatch", i, j)
			}
		}
	}
}

// joinAll joins every node into one ring through the first node, then runs
// stabilization until the successor structure matches the oracle (or rounds
// is exhausted). It returns the number of rounds used.
func joinAll(r *Ring, rounds int) (int, error) {
	r.sortNodes()
	if len(r.order) <= 1 {
		return 0, nil
	}
	boot := r.order[0]
	for _, n := range r.order {
		if n == boot {
			continue
		}
		if err := n.Join(boot); err != nil {
			return 0, err
		}
	}
	return r.Stabilize(rounds), nil
}
