package chord

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
)

// referenceClosestPreceding is the finger scan without the slot bound: every
// stored finger from the top down, then the successor list. The slot-bounded
// scan must return exactly what it does.
func referenceClosestPreceding(n *Node, key chordid.ID, excluded map[chordid.ID]bool) (best Ref, above int) {
	acceptable := func(r Ref) bool {
		return !r.IsZero() && !excluded[r.ID] && r.ID != n.ref.ID &&
			r.ID.Between(n.ref.ID, key)
	}
	var bestDist chordid.ID
	first := true
	for i := len(n.fingers) - 1; i >= 0; i-- {
		if r := n.fingers[i].ref; acceptable(r) {
			best, bestDist, first, above = r, r.ID.Distance(key), false, i+1
			break
		}
	}
	for _, s := range n.succs {
		if !acceptable(s) {
			continue
		}
		if d := s.ID.Distance(key); first || d.Cmp(bestDist) < 0 {
			best, bestDist, first = s, d, false
		}
	}
	return best, above
}

// referenceNextHop is nextHop over referenceClosestPreceding.
func referenceNextHop(n *Node, req nextHopReq) nextHopResp {
	var excluded map[chordid.ID]bool
	if len(req.Exclude) > 0 {
		excluded = make(map[chordid.ID]bool, len(req.Exclude))
		for _, id := range req.Exclude {
			excluded[id] = true
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.succs {
		if s.IsZero() || excluded[s.ID] {
			continue
		}
		if req.Key.BetweenRightIncl(n.ref.ID, s.ID) {
			return nextHopResp{Done: true, Ref: s}
		}
		break
	}
	if best, above := referenceClosestPreceding(n, req.Key, excluded); !best.IsZero() {
		resp := nextHopResp{Ref: best}
		if excluded == nil {
			resp.Hint = n.ownerHintLocked(req.Key, above)
		}
		return resp
	}
	for _, s := range n.succs {
		if !s.IsZero() && !excluded[s.ID] && s.ID != n.ref.ID {
			return nextHopResp{Ref: s}
		}
	}
	return nextHopResp{Done: true, Ref: n.ref}
}

// countInverted counts, from scratch, the fingers whose node lies in
// [self, slot start): short of the start the slot targets.
func countInverted(n *Node) int {
	count := 0
	for _, f := range n.fingers {
		if start := slotStart(n.ref.ID, int(f.slot)); f.ref.ID == n.ref.ID || f.ref.ID.Between(n.ref.ID, start) {
			count++
		}
	}
	return count
}

func requireInvertedCount(t *testing.T, n *Node, after string) {
	t.Helper()
	n.mu.Lock()
	got, want := n.inverted, countInverted(n)
	n.mu.Unlock()
	if got != want {
		t.Fatalf("after %s: node %s counts %d inverted fingers, the table holds %d", after, n.ref, got, want)
	}
}

func randomID(rng *rand.Rand) chordid.ID {
	var id chordid.ID
	rng.Read(id[:])
	return id
}

// randomRef returns a node at clockwise distance below limit from base; a zero
// limit means anywhere on the ring.
func randomRef(rng *rand.Rand, base, limit chordid.ID) Ref {
	d := randomID(rng)
	if limit != (chordid.ID{}) {
		// Keep d below limit's leading bit.
		hi, lo := binary.BigEndian.Uint64(limit[:8]), binary.BigEndian.Uint64(limit[8:])
		dhi, dlo := binary.BigEndian.Uint64(d[:8]), binary.BigEndian.Uint64(d[8:])
		if hi != 0 {
			dhi &= 1<<(63-bits.LeadingZeros64(hi)) - 1
		} else {
			dhi, dlo = 0, dlo&(1<<(63-bits.LeadingZeros64(lo))-1)
		}
		binary.BigEndian.PutUint64(d[:8], dhi)
		binary.BigEndian.PutUint64(d[8:], dlo)
	}
	id := base.Add(d)
	return Ref{ID: id, Addr: simnet.Addr(id.Short())}
}

// randomTable builds a standalone node whose finger table and successor list
// mix sound fingers with, when stale is set, inverted ones, zero refs and the
// node itself.
func randomTable(rng *rand.Rand, stale bool) *Node {
	self := randomID(rng)
	n := &Node{ref: Ref{ID: self, Addr: "self"}}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		switch {
		case stale && rng.Intn(8) == 0:
			n.succs = append(n.succs, Ref{})
		case stale && rng.Intn(8) == 0:
			n.succs = append(n.succs, n.ref)
		default:
			n.succs = append(n.succs, randomRef(rng, self, slotOffset(rng.Intn(fingerSlots))))
		}
	}
	slot := rng.Intn(fingerSlots / 4)
	for ; slot < fingerSlots; slot += 1 + rng.Intn(12) {
		off := slotOffset(slot)
		var f finger
		switch {
		case stale && rng.Intn(6) == 0:
			f.ref = randomRef(rng, self, off) // short of the slot's start
		case stale && rng.Intn(10) == 0:
			f.ref = Ref{}
		case stale && rng.Intn(20) == 0:
			f.ref = n.ref
		case len(n.fingers) > 0 && rng.Intn(3) == 0:
			// The same node as the slot below, when it lies at or past this
			// slot's start.
			if prev := n.fingers[len(n.fingers)-1].ref; self.Distance(prev.ID).Cmp(off) >= 0 {
				f.ref = prev
				break
			}
			fallthrough
		default:
			f.ref = randomRef(rng, self.Add(off), off)
			if self.Distance(f.ref.ID).Cmp(off) < 0 {
				f.ref = Ref{ID: self.Add(off), Addr: "start"} // wrapped past self
			}
		}
		f.slot, f.arc = uint16(slot), rng.Uint32()
		n.fingers = append(n.fingers, f)
	}
	n.fingersChangedLocked()
	return n
}

// keysFor returns keys at the edges the scan's bound is drawn at: each slot
// start and its neighbours, the fingers and successors themselves, the node's
// own ID and random keys.
func keysFor(rng *rand.Rand, n *Node) []chordid.ID {
	one := chordid.FromUint64(1)
	keys := []chordid.ID{n.ref.ID, n.ref.ID.Add(one), n.ref.ID.Sub(one)}
	for _, f := range n.fingers {
		start := slotStart(n.ref.ID, int(f.slot))
		keys = append(keys, start, start.Sub(one), f.ref.ID)
	}
	for _, s := range n.succs {
		keys = append(keys, s.ID, s.ID.Add(one))
	}
	for i := 0; i < 8; i++ {
		keys = append(keys, randomID(rng))
	}
	return keys
}

// randomExclusions returns nil or a few IDs drawn from the node's fingers,
// successors and the ring at large.
func randomExclusions(rng *rand.Rand, n *Node) []chordid.ID {
	if rng.Intn(2) == 0 {
		return nil
	}
	var out []chordid.ID
	for i := 1 + rng.Intn(4); i > 0; i-- {
		switch k := rng.Intn(3); {
		case k == 0 && len(n.fingers) > 0:
			out = append(out, n.fingers[rng.Intn(len(n.fingers))].ref.ID)
		case k == 1:
			out = append(out, n.succs[rng.Intn(len(n.succs))].ID)
		default:
			out = append(out, randomID(rng))
		}
	}
	return out
}

// keySlot names the lowest slot whose offset reaches d, as a search of the
// offsets does: at every offset, one either side of it, and at random.
func TestKeySlotMatchesOffsetSearch(t *testing.T) {
	want := func(d chordid.ID) int {
		for slot := 0; slot < fingerSlots; slot++ {
			if slotOffset(slot).Cmp(d) >= 0 {
				return slot
			}
		}
		return fingerSlots
	}
	one := chordid.FromUint64(1)
	ds := []chordid.ID{one, chordid.ID{}.Sub(one)}
	for slot := 0; slot < fingerSlots; slot++ {
		off := slotOffset(slot)
		ds = append(ds, off, off.Add(one), off.Sub(one))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		ds = append(ds, randomRef(rng, chordid.ID{}, slotOffset(rng.Intn(fingerSlots))).ID)
	}
	for _, d := range ds {
		if d == (chordid.ID{}) {
			continue
		}
		if got, want := keySlot(d), want(d); got != want {
			t.Fatalf("keySlot(%s) = %d, want %d", d, got, want)
		}
	}
}

// The slot-bounded scan answers exactly what the full top-down scan does —
// closest preceding node and the finger above it — and so does nextHop,
// owner hint included, on sound and stale tables, with and without
// exclusions.
func TestFingerScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounded := 0
	for table := 0; table < 100; table++ {
		n := randomTable(rng, table%2 == 1)
		requireInvertedCount(t, n, "building the table")
		for _, key := range keysFor(rng, n) {
			exclude := randomExclusions(rng, n)
			var excluded map[chordid.ID]bool
			if exclude != nil {
				excluded = map[chordid.ID]bool{}
				for _, id := range exclude {
					excluded[id] = true
				}
			}
			n.mu.Lock()
			best, above := n.closestPrecedingLocked(key, excluded)
			wantBest, wantAbove := referenceClosestPreceding(n, key, excluded)
			if n.fingersBelowLocked(key) < len(n.fingers) {
				bounded++
			}
			n.mu.Unlock()
			if best != wantBest || above != wantAbove {
				t.Fatalf("table %d (%d inverted), key %s, excluding %d: scan = %s above %d, reference %s above %d",
					table, n.inverted, key.Short(), len(exclude), best, above, wantBest, wantAbove)
			}
			req := nextHopReq{Key: key, Exclude: exclude}
			if got, want := n.nextHop(req), referenceNextHop(n, req); got != want {
				t.Fatalf("table %d (%d inverted), key %s, excluding %d: nextHop = %+v, reference %+v",
					table, n.inverted, key.Short(), len(exclude), got, want)
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no scan was bounded below the top: the test exercises nothing")
	}
}

// On a built ring, where no finger is inverted, every node's answers match
// the reference for keys all around the ring.
func TestFingerScanMatchesReferenceOnBuiltRing(t *testing.T) {
	r := buildRing(t, 256, Config{})
	rng := rand.New(rand.NewSource(3))
	for _, n := range r.Nodes()[:32] {
		requireInvertedCount(t, n, "Build")
		if n.inverted != 0 {
			t.Fatalf("Build stored %d inverted fingers at %s", n.inverted, n.ref)
		}
		for _, key := range keysFor(rng, n) {
			req := nextHopReq{Key: key}
			if got, want := n.nextHop(req), referenceNextHop(n, req); got != want {
				t.Fatalf("node %s, key %s: nextHop = %+v, reference %+v", n.ref, key.Short(), got, want)
			}
		}
	}
}

// Every path that writes a finger table leaves the inverted count right:
// Build, setFingerLocked storing, replacing and removing, dropPeer, and
// fixFinger's refresh and truncation.
func TestInvertedCountFollowsEveryWrite(t *testing.T) {
	r := buildRing(t, 24, Config{SuccessorListLen: 8})
	nodes := r.Nodes()
	n := nodes[0]
	requireInvertedCount(t, n, "Build")
	fs := fingersOf(n)
	if len(fs) < 3 {
		t.Fatalf("only %d fingers stored", len(fs))
	}
	// Store an inverted finger beside the sound ones, in a new slot (below
	// the stored ones, which run to the top) and over an existing one.
	short := Ref{ID: n.ID().Add(chordid.FromUint64(1)), Addr: nodes[1].Addr()}
	n.mu.Lock()
	n.setFingerLocked(int(fs[0].slot)-1, short, 0)
	n.mu.Unlock()
	requireInvertedCount(t, n, "storing an inverted finger in a new slot")
	n.mu.Lock()
	n.setFingerLocked(int(fs[1].slot), short, 0)
	n.mu.Unlock()
	requireInvertedCount(t, n, "replacing a finger with an inverted one")
	if n.inverted != 2 {
		t.Fatalf("%d inverted fingers, want 2", n.inverted)
	}
	n.mu.Lock()
	n.setFingerLocked(int(fs[1].slot), fs[1].ref, fs[1].arc)
	n.setFingerLocked(int(fs[0].slot), n.ref, 0)
	n.mu.Unlock()
	requireInvertedCount(t, n, "restoring a finger and removing one")
	n.dropPeer(short)
	requireInvertedCount(t, n, "dropPeer")
	if n.inverted != 0 {
		t.Fatalf("%d inverted fingers after dropping their node", n.inverted)
	}

	// A refresh cycle over a shrunken ring truncates the table; an inverted
	// finger in a slot that became implied goes with the truncation.
	n.mu.Lock()
	n.setFingerLocked(int(fs[0].slot), short, 0)
	n.mu.Unlock()
	for _, leaver := range nodes[1:5] {
		r.Leave(leaver)
	}
	requireInvertedCount(t, n, "Leave")
	for n.fixFinger() {
		requireInvertedCount(t, n, "fixFinger's refresh")
	}
	requireInvertedCount(t, n, "fixFinger's truncation")
	if n.inverted != 0 {
		t.Fatalf("%d inverted fingers after a full refresh", n.inverted)
	}
}

// BenchmarkNextHop answers the next-hop requests of lookups for random keys
// on a 4 096-node ring, each at the node that receives it during the walk —
// near the querier for early hops, near the key for late ones.
func BenchmarkNextHop(b *testing.B) {
	r := buildRing(b, 4096, Config{})
	nodes := r.Nodes()
	byAddr := make(map[simnet.Addr]*Node, len(nodes))
	for _, n := range nodes {
		byAddr[n.Addr()] = n
	}
	type hop struct {
		at  *Node
		req nextHopReq
	}
	var hops []hop
	rng := rand.New(rand.NewSource(1))
	for len(hops) < 4096 {
		req := nextHopReq{Key: randomID(rng)}
		for at := nodes[rng.Intn(len(nodes))]; ; {
			hops = append(hops, hop{at, req})
			resp := at.nextHop(req)
			if resp.Done {
				break
			}
			at = byAddr[resp.Ref.Addr]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hops[i%len(hops)]
		hopSink = h.at.nextHop(h.req)
	}
}

var hopSink nextHopResp
