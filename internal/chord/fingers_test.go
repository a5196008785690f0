package chord

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
)

func fingersOf(n *Node) []finger {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]finger(nil), n.fingers...)
}

// builtFingers returns, per address, the finger table Build computes for a
// ring of exactly the named nodes.
func builtFingers(t *testing.T, cfg Config, names []simnet.Addr) map[simnet.Addr][]finger {
	t.Helper()
	r := NewRing(simnet.New(1), cfg)
	for _, name := range names {
		if _, err := r.AddNode(string(name)); err != nil {
			t.Fatal(err)
		}
	}
	r.Build()
	out := make(map[simnet.Addr][]finger, len(names))
	for _, n := range r.Nodes() {
		out[n.Addr()] = fingersOf(n)
	}
	return out
}

// requireFingersMatchBuild fails unless every alive node of r holds exactly
// the table Build computes over the alive population.
func requireFingersMatchBuild(t *testing.T, r *Ring) {
	t.Helper()
	alive := r.aliveNodes()
	names := make([]simnet.Addr, len(alive))
	for i, n := range alive {
		names[i] = n.Addr()
	}
	want := builtFingers(t, r.cfg, names)
	for _, n := range alive {
		if got := fingersOf(n); !reflect.DeepEqual(got, want[n.Addr()]) {
			t.Fatalf("node %s: table\n  %v\nBuild over the same nodes gives\n  %v", n.Addr(), got, want[n.Addr()])
		}
	}
}

// Property: after Build every stored slot holds the oracle owner of its
// start, in ascending slot order, and every slot left out either starts in
// (n, succs[0]] — where the successor list answers — or resolves to the node
// itself.
func TestFingerTableMatchesOracle(t *testing.T) {
	for _, size := range []int{1, 2, 3, 24, 1000} {
		r := buildRing(t, size, Config{})
		stored := 0
		// Ring.Owner is linear in the ring, so the big ring checks the
		// layout of every node but the oracle on a spread of 50.
		stride := (size + 49) / 50
		for i, n := range r.Nodes() {
			table := map[int]Ref{}
			last := -1
			for _, f := range fingersOf(n) {
				if int(f.slot) <= last {
					t.Fatalf("N=%d node %s: slots not strictly ascending at %d", size, n.Addr(), f.slot)
				}
				last = int(f.slot)
				table[last] = f.ref
			}
			stored += len(table)
			if i%stride != 0 {
				continue
			}
			succ := n.Successor()
			for slot := 0; slot < fingerSlots; slot++ {
				start := slotStart(n.ID(), slot)
				got, ok := table[slot]
				if !ok && start.BetweenRightIncl(n.ID(), succ.ID) {
					continue // implied by the successor list
				}
				want, _ := r.Owner(start)
				switch {
				case ok && got != want.Ref():
					t.Fatalf("N=%d node %s slot %d = %s, oracle %s", size, n.Addr(), slot, got, want.Ref())
				case !ok && want != n:
					t.Fatalf("N=%d node %s slot %d (owner %s) is neither stored nor implied", size, n.Addr(), slot, want.Ref())
				}
			}
		}
		t.Logf("N=%d: %.1f stored entries per node", size, float64(stored)/float64(size))
		if size == 1 && stored != 0 {
			t.Fatalf("singleton ring stores %d fingers", stored)
		}
	}
}

func TestSlotStartOrder(t *testing.T) {
	var zero chordid.ID
	prev := zero
	for slot := 0; slot < fingerSlots; slot++ {
		off := slotStart(zero, slot)
		if off.Cmp(prev) <= 0 {
			t.Fatalf("slot %d offset %s does not exceed slot %d's %s", slot, off, slot-1, prev)
		}
		prev = off
	}
	if got := slotStart(zero, 0).Uint64(); got != 1 {
		t.Fatalf("slot 0 offset = %d, want 1", got)
	}
	if got := slotStart(zero, fingerDigits+2).Uint64(); got != 3*16 {
		t.Fatalf("slot (1,3) offset = %d, want 48", got)
	}
	top := slotStart(zero, fingerSlots-1)
	if top[0] != 0xf0 || top.Sub(chordid.ID{0: 0xf0}) != zero {
		t.Fatalf("top slot offset = %s, want 15·16^31", top)
	}
}

func TestLookupHopBound(t *testing.T) {
	for _, size := range []int{64, 1024, 4096} {
		r := buildRing(t, size, Config{})
		nodes := r.Nodes()
		rng := rand.New(rand.NewSource(11))
		const trials = 5000
		total, maxHops := 0, 0
		for i := 0; i < trials; i++ {
			key := chordid.HashKey(fmt.Sprintf("hopkey-%d", i))
			_, hops, err := nodes[rng.Intn(len(nodes))].Lookup(key)
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			total += hops
			if hops > maxHops {
				maxHops = hops
			}
		}
		avg := float64(total) / trials
		meanBound := math.Log2(float64(size))/fingerDigitBits + 1.5
		maxBound := math.Log2(float64(size)) + 2
		t.Logf("N=%d: mean %.2f hops (bound %.2f), max %d (bound %.0f)", size, avg, meanBound, maxHops, maxBound)
		if avg > meanBound {
			t.Errorf("N=%d: mean hops %.2f exceeds log16(N)+1.5 = %.2f", size, avg, meanBound)
		}
		if float64(maxHops) > maxBound {
			t.Errorf("N=%d: max hops %d exceeds log2(N)+2 = %.0f", size, maxHops, maxBound)
		}
	}
}

// The protocol path (join, stabilize, fixFinger) must reach exactly the
// table the global-knowledge path (Build) wires.
func TestFixFingersConvergeToBuild(t *testing.T) {
	r := NewRing(simnet.New(21), Config{})
	if _, err := r.AddNodes("cv", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := r.JoinAll(400); err != nil {
		t.Fatalf("JoinAll: %v", err)
	}
	r.StabilizeLists(400)
	if !r.ConvergedLists() {
		t.Fatal("successor lists did not converge")
	}
	rounds := r.RepairFingers()
	requireFingersMatchBuild(t, r)
	// A cycle is one lookup per stored slot, the occasional slot that
	// resolves to the node itself, and the wrap.
	stored := 0
	for _, n := range r.Nodes() {
		stored += n.FingerCount()
	}
	if rounds < stored+64 || rounds > stored+3*64 {
		t.Fatalf("full refresh took %d fixFinger rounds for %d stored slots on 64 nodes", rounds, stored)
	}
	// A second cycle finds nothing to change.
	r.RepairFingers()
	requireFingersMatchBuild(t, r)
}

func TestFingersRepairAfterMassFailure(t *testing.T) {
	r := buildRing(t, 64, Config{SuccessorListLen: 8})
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(5))
	dead := map[chordid.ID]bool{}
	for len(dead) < len(nodes)/4 {
		n := nodes[rng.Intn(len(nodes))]
		if !dead[n.ID()] {
			dead[n.ID()] = true
			r.Fail(n)
		}
	}
	r.StabilizeLists(400)
	if !r.ConvergedLists() {
		t.Fatal("successor lists did not converge after failures")
	}
	r.RepairFingers()

	alive := r.aliveNodes()
	for _, n := range alive {
		for _, f := range fingersOf(n) {
			if dead[f.ref.ID] {
				t.Fatalf("node %s slot %d still names dead node %s", n.Addr(), f.slot, f.ref)
			}
		}
	}
	requireFingersMatchBuild(t, r)

	for i := 0; i < 40; i++ {
		key := chordid.HashKey(fmt.Sprintf("after-failure-%d", i))
		owner, _ := r.Owner(key)
		var next *Node // the owner once the true owner is excluded
		for j, n := range alive {
			if n == owner {
				next = alive[(j+1)%len(alive)]
			}
		}
		for _, from := range alive {
			got, _, err := from.Lookup(key)
			if err != nil || got != owner.Ref() {
				t.Fatalf("Lookup(%s) from %s = %s, %v; oracle %s", key.Short(), from.Addr(), got, err, owner.Ref())
			}
			got, _, err = from.LookupExcluding(context.Background(), key, []chordid.ID{owner.ID()}, nil)
			if err != nil || got != next.Ref() {
				t.Fatalf("LookupExcluding(%s) from %s = %s, %v; oracle %s", key.Short(), from.Addr(), got, err, next.Ref())
			}
		}
	}
}

func TestDropPeerDeletesFingers(t *testing.T) {
	r := buildRing(t, 24, Config{})
	n := r.Nodes()[0]
	before := fingersOf(n)
	gone := before[len(before)/2].ref
	var want []finger
	for _, f := range before {
		if f.ref != gone {
			want = append(want, f)
		}
	}
	n.dropPeer(gone)
	if got := fingersOf(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("after dropPeer(%s) table = %v, want %v", gone, got, want)
	}
}

// When the nodes just past n leave, slots that used to need storing become
// implied by the new, farther successor; the next refresh cycle must cut the
// table back to what Build gives for the smaller ring.
func TestFixFingerTruncatesWhenRingShrinks(t *testing.T) {
	r := buildRing(t, 24, Config{SuccessorListLen: 8})
	nodes := r.Nodes()
	n := nodes[0]
	for _, leaver := range nodes[1:5] {
		r.Leave(leaver)
	}
	n.mu.Lock()
	stale := 0
	for _, f := range n.fingers {
		if n.slotImpliedLocked(int(f.slot)) {
			stale++
		}
	}
	n.mu.Unlock()
	if stale == 0 {
		t.Fatal("no stored slot became implied: the test exercises nothing")
	}
	before := n.FingerCount()
	n.RepairFingers()
	if after := n.FingerCount(); after > before-stale {
		t.Fatalf("table has %d entries after the refresh, want at most %d", after, before-stale)
	}
	var names []simnet.Addr
	for _, m := range r.Nodes() {
		names = append(names, m.Addr())
	}
	if got, want := fingersOf(n), builtFingers(t, r.cfg, names)[n.Addr()]; !reflect.DeepEqual(got, want) {
		t.Fatalf("table after shrink = %v, Build gives %v", got, want)
	}
}
