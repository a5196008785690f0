package chord

import (
	"fmt"
	"sort"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
)

// Ring manages a set of Chord nodes living on one simulated network. It is
// the simulation driver: experiments create nodes through it, wire the
// overlay either instantly (Build) or via the join/stabilize protocol, and
// inject churn. Ring also serves as the test oracle — it knows the globally
// correct owner of every key.
type Ring struct {
	net   simnet.Transport
	cfg   Config
	nodes map[chordid.ID]*Node
	order []*Node // sorted by ID; maintained lazily by sortNodes
	dirty bool
}

// NewRing creates an empty ring manager over any transport.
func NewRing(net simnet.Transport, cfg Config) *Ring {
	return &Ring{
		net:   net,
		cfg:   cfg.withDefaults(),
		nodes: make(map[chordid.ID]*Node),
	}
}

// Net returns the underlying transport.
func (r *Ring) Net() simnet.Transport { return r.net }

// Config returns the overlay configuration (with defaults applied).
func (r *Ring) Config() Config { return r.cfg }

// AddNode creates a node named name and tracks it. The node is not wired
// into the overlay until Build or Join+Stabilize runs. AddNode fails on a
// (vanishingly unlikely) MD5 identifier collision, which would otherwise
// silently merge two peers.
func (r *Ring) AddNode(name string) (*Node, error) {
	id := chordid.HashKey(name)
	if existing, ok := r.nodes[id]; ok {
		return nil, fmt.Errorf("chord: node %q collides with %q at %s", name, existing.Addr(), id)
	}
	n := NewNode(r.net, name, r.cfg)
	r.nodes[id] = n
	r.dirty = true
	return n, nil
}

// AddNodes creates count nodes named prefix0..prefix<count-1>.
func (r *Ring) AddNodes(prefix string, count int) ([]*Node, error) {
	out := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		n, err := r.AddNode(fmt.Sprintf("%s%d", prefix, i))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// Nodes returns all tracked nodes sorted by ring position.
func (r *Ring) Nodes() []*Node {
	r.sortNodes()
	out := make([]*Node, len(r.order))
	copy(out, r.order)
	return out
}

// Size returns the number of tracked nodes.
func (r *Ring) Size() int { return len(r.nodes) }

func (r *Ring) sortNodes() {
	if !r.dirty && len(r.order) == len(r.nodes) {
		return
	}
	r.order = r.order[:0]
	for _, n := range r.nodes {
		r.order = append(r.order, n)
	}
	sort.Slice(r.order, func(i, j int) bool {
		return r.order[i].ID().Less(r.order[j].ID())
	})
	r.dirty = false
}

// Build wires every node's predecessor, successor list, and finger table —
// each finger with its node's arc — directly from global knowledge. The
// resulting overlay state is the unique fixed point that Chord's
// join/stabilize protocol converges to for this node population, so
// experiments that are not about churn can skip the convergence phase. Build
// is idempotent.
func (r *Ring) Build() {
	r.sortNodes()
	n := len(r.order)
	if n == 0 {
		return
	}
	ids := make([]chordid.ID, n)
	for i, node := range r.order {
		ids[i] = node.ID()
	}
	succRef := func(i int) Ref { return r.order[i%n].Ref() }
	var top []finger // scratch, reused across nodes

	for i, node := range r.order {
		node.mu.Lock()
		node.pred = succRef(i + n - 1)
		listLen := node.cfg.SuccessorListLen
		if listLen > n-1 && n > 1 {
			listLen = n - 1
		}
		if n == 1 {
			node.succs = []Ref{node.ref}
		} else {
			node.succs = make([]Ref, 0, listLen)
			for j := 1; j <= listLen; j++ {
				node.succs = append(node.succs, succRef(i+j))
			}
		}
		// Fingers from the top slot down to the first one that resolves to
		// the immediate successor — on a correct ring exactly the slots that
		// start past it; slot 0 (offset 1) always ends the walk. Collected
		// farthest-first, stored nearest-first.
		top = top[:0]
		for slot := fingerSlots - 1; ; slot-- {
			owner := successorIndex(ids, slotStart(node.ref.ID, slot))
			if owner == (i+1)%n {
				break
			}
			if owner != i {
				arc := arcTop(ids[(owner+n-1)%n], ids[owner])
				top = append(top, finger{ref: r.order[owner].ref, slot: uint16(slot), arc: arc})
			}
		}
		node.fingers = make([]finger, len(top))
		for k, f := range top {
			node.fingers[len(top)-1-k] = f
		}
		node.nextFix = fingerSlots - 1
		node.mu.Unlock()
	}
}

// successorIndex returns the index in the sorted id slice of the first node
// whose ID is >= key, wrapping to 0 past the end.
func successorIndex(ids []chordid.ID, key chordid.ID) int {
	i := sort.Search(len(ids), func(i int) bool { return ids[i].Cmp(key) >= 0 })
	if i == len(ids) {
		return 0
	}
	return i
}

// Owner returns the globally correct owner of key among currently *alive*
// nodes — the oracle the tests compare lookups against. It returns false if
// no node is alive.
func (r *Ring) Owner(key chordid.ID) (*Node, bool) {
	r.sortNodes()
	if len(r.order) == 0 {
		return nil, false
	}
	start := successorIndex(r.idsAlivePreserveOrder(), key)
	alive := r.aliveNodes()
	if len(alive) == 0 {
		return nil, false
	}
	return alive[start%len(alive)], true
}

func (r *Ring) aliveNodes() []*Node {
	r.sortNodes()
	out := make([]*Node, 0, len(r.order))
	for _, n := range r.order {
		if r.net.Alive(n.Addr()) {
			out = append(out, n)
		}
	}
	return out
}

func (r *Ring) idsAlivePreserveOrder() []chordid.ID {
	alive := r.aliveNodes()
	ids := make([]chordid.ID, len(alive))
	for i, n := range alive {
		ids[i] = n.ID()
	}
	return ids
}

// JoinAll joins every node into one ring through the first node, then runs
// stabilization until the successor structure matches the oracle (or rounds
// is exhausted). It returns the number of rounds used.
func (r *Ring) JoinAll(rounds int) (int, error) {
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

// Stabilize runs up to rounds rounds of the periodic protocol on every node
// (stabilize + one finger refresh per node per round), stopping early once
// every alive node's successor matches the oracle. It returns the number of
// rounds executed.
func (r *Ring) Stabilize(rounds int) int {
	for round := 1; round <= rounds; round++ {
		for _, n := range r.aliveNodes() {
			n.stabilize()
			n.fixFinger()
		}
		if r.Converged() {
			return round
		}
	}
	return rounds
}

// Converged reports whether every alive node's immediate successor is the
// next alive node on the ring.
func (r *Ring) Converged() bool {
	alive := r.aliveNodes()
	if len(alive) <= 1 {
		return true
	}
	for i, n := range alive {
		want := alive[(i+1)%len(alive)].ID()
		if n.Successor().ID != want {
			return false
		}
	}
	return true
}

// ConvergedLists reports whether every alive node's full successor list
// matches the oracle — its next min(SuccessorListLen, alive-1) alive nodes in
// ring order. This is strictly stronger than Converged: routing only needs
// immediate successors, but successor-dependent placement (§7 replica
// targets) reads the whole list, which lags behind by up to one ring hop per
// stabilization round.
func (r *Ring) ConvergedLists() bool {
	alive := r.aliveNodes()
	if len(alive) <= 1 {
		return true
	}
	for i, n := range alive {
		want := n.cfg.SuccessorListLen
		if want > len(alive)-1 {
			want = len(alive) - 1
		}
		succs := n.SuccessorList()
		if len(succs) < want {
			return false
		}
		for j := 0; j < want; j++ {
			if succs[j].ID != alive[(i+1+j)%len(alive)].ID() {
				return false
			}
		}
	}
	return true
}

// StabilizeLists is Stabilize run to the stronger ConvergedLists fixed
// point. Use it when an experiment needs replica placement — not just
// routing — to match the ring oracle before proceeding.
func (r *Ring) StabilizeLists(rounds int) int {
	for round := 1; round <= rounds; round++ {
		for _, n := range r.aliveNodes() {
			n.stabilize()
			n.fixFinger()
		}
		if r.ConvergedLists() {
			return round
		}
	}
	return rounds
}

// RepairFingers runs one full finger refresh cycle on every alive node via
// lookups and returns the total number of fixFinger rounds that took. Used
// after churn when an experiment needs log-N routing restored promptly.
func (r *Ring) RepairFingers() int {
	rounds := 0
	for _, n := range r.aliveNodes() {
		rounds += n.RepairFingers()
	}
	return rounds
}

// Fail crashes the named node (it stays registered so Recover can revive
// it). It is a no-op on transports without fault injection.
func (r *Ring) Fail(n *Node) {
	if fi, ok := r.net.(simnet.FaultInjector); ok {
		fi.Fail(n.Addr())
	}
}

// Recover revives a previously failed node. Its overlay state is stale until
// stabilization rounds run. No-op on transports without fault injection.
func (r *Ring) Recover(n *Node) {
	if fi, ok := r.net.(simnet.FaultInjector); ok {
		fi.Recover(n.Addr())
	}
}

// Leave removes a node gracefully: before unregistering it, the departing
// node's live predecessor and successor are spliced together — the successor
// adopts the leaver's predecessor (firing its arc-change hook, which is how
// the application layer learns the arc merged) and the predecessor's
// successor list skips the leaver — so routing never dips through the gap
// while stabilization catches up. The node is then unregistered and
// forgotten by the manager.
func (r *Ring) Leave(n *Node) {
	r.splice(n)
	r.net.Unregister(n.Addr())
	delete(r.nodes, n.ID())
	r.dirty = true
}

// splice rewires the departing node's alive ring neighbors around it.
func (r *Ring) splice(n *Node) {
	alive := r.aliveNodes()
	if len(alive) <= 1 {
		return
	}
	idx := -1
	for i, node := range alive {
		if node == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // leaver is itself failed; stabilization handles the rest
	}
	pred := alive[(idx+len(alive)-1)%len(alive)]
	succ := alive[(idx+1)%len(alive)]
	if pred == n || succ == n {
		return
	}
	// The successor drops the leaver from its state and adopts the leaver's
	// predecessor through notify, so the application arc-change hook fires
	// exactly as it would for protocol-driven adoption.
	succ.dropPeer(n.Ref())
	succ.notify(pred.Ref())
	// Every other alive node just forgets the leaver; stabilize rebuilds the
	// lists from live state.
	for _, node := range alive {
		if node != n && node != succ {
			node.dropPeer(n.Ref())
		}
	}
}
