// Package chord implements the Chord distributed hash table (Stoica et al.,
// SIGCOMM'01) on top of the simulated network in internal/simnet. SPRITE uses
// Chord as its overlay ("We implemented Chord as designed in [15]", §6):
// every term, query, and node name is hashed with MD5 onto a 2^128 ring, and
// the peer responsible for a key is the key's successor.
//
// The implementation follows the paper's protocol: each node keeps a finger
// table, a predecessor pointer, and a successor list for fault tolerance.
// Lookups are iterative — the querying node repeatedly asks the closest
// preceding node for a better candidate, one RPC per hop — which makes hop
// counting exact and lets the experiment harness validate the O(log N) bound.
//
// The finger table is Chord's generalized to base 16 (finger[ℓ][j] =
// successor(n + j·16^ℓ), j = 1…15), which resolves one hex digit of the
// remaining distance per hop instead of one bit. Fingers are routing hints
// only: ownership of a key is always decided from the successor list, so the
// table's shape changes how many hops a lookup takes, never its answer. A
// node stores just the fingers that can differ from its immediate successor
// (see Node.fingers), so the table sizes itself to the ring.
//
// Route fuses the lookup with the delivery it exists for. A node that is asked
// for the next hop also names the node its fingers or successor list say owns
// the key (an owner hint), and Route delivers straight to it instead of first
// visiting the owner's predecessor to be told the same. A hint may be stale, so
// it never decides ownership: the hinted delivery carries the key, and the
// receiver serves it only if the key lies in its own arc (predecessor, self] —
// otherwise it refuses and the lookup carries on as if no hint had been given.
// A caller that remembers who served a key may pass that address as a hint of
// its own, tried first under the same check.
//
// Each finger also knows its node's whole arc: the entry keeps the top 32 bits
// of the arc's length, read off the predecessor Build wired or the node that
// ended the finger's refresh lookup. A node can therefore name the owner of
// every key that falls in one of its fingers' arcs, and LocalOwner lets an
// application ask it that without a message. A ring has as many arcs as
// peers, so this knowledge is bounded by the table, where a per-key route
// cache would grow with the keys asked for; no such cache is planned.
//
// Because the surrounding system is a simulation, a Ring manager owns all
// nodes and offers two construction modes: protocol joins with explicit
// stabilization rounds (used by churn tests), and Build, which wires
// successor lists and finger tables directly from global knowledge (used to
// bootstrap large experiment rings quickly; the resulting state is exactly
// the fixed point stabilization would reach).
package chord

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// Ref identifies a node: its ring position and network address. The zero Ref
// is "no node".
type Ref struct {
	ID   chordid.ID
	Addr simnet.Addr
}

// IsZero reports whether r names no node.
func (r Ref) IsZero() bool { return r == Ref{} }

func (r Ref) String() string {
	if r.IsZero() {
		return "<nil>"
	}
	return fmt.Sprintf("%s@%s", r.ID.Short(), r.Addr)
}

// maxLookupHops bounds an iterative lookup as a safety net against routing
// loops in a badly damaged ring.
const maxLookupHops = 256

// Config holds overlay parameters.
type Config struct {
	// SuccessorListLen is the length r of each node's successor list. Chord
	// tolerates up to r-1 consecutive node failures. Default 4.
	SuccessorListLen int
	// Telemetry, when non-nil, receives overlay metrics: a lookup hop-count
	// histogram, lookup/failure counts, stabilization rounds, and
	// finger-table repairs. Nil (the default) disables instrumentation; the
	// overlay then pays only nil checks.
	Telemetry *telemetry.Registry
}

// nodeMetrics caches the overlay's instrument handles. All fields are nil
// when no registry is configured, which every instrument accepts.
type nodeMetrics struct {
	lookups       *telemetry.Counter
	lookupsFailed *telemetry.Counter
	hops          *telemetry.Histogram
	// Routed deliveries sent on an owner hint, hints the receiver refused
	// (one wasted round trip each), and hinted nodes found dead before sending.
	hinted          *telemetry.Counter
	hintRejected    *telemetry.Counter
	hintUnreachable *telemetry.Counter
	stabilizes      *telemetry.Counter
	fingerRepairs   *telemetry.Counter
	succDepth       *telemetry.Gauge
}

func newNodeMetrics(reg *telemetry.Registry) nodeMetrics {
	return nodeMetrics{
		lookups:         reg.Counter("chord.lookups"),
		lookupsFailed:   reg.Counter("chord.lookups_failed"),
		hops:            reg.Histogram("chord.lookup.hops"),
		hinted:          reg.Counter("chord.route.hinted"),
		hintRejected:    reg.Counter("chord.route.hint_rejected"),
		hintUnreachable: reg.Counter("chord.route.hint_unreachable"),
		stabilizes:      reg.Counter("chord.stabilize.rounds"),
		fingerRepairs:   reg.Counter("chord.finger.repairs"),
		succDepth:       reg.Gauge("chord.successors.depth"),
	}
}

func (c Config) withDefaults() Config {
	if c.SuccessorListLen <= 0 {
		c.SuccessorListLen = 4
	}
	return c
}

// ErrLookupFailed wraps all iterative-lookup failures (routing loops, hop
// budget exhausted, or no live owner reachable).
var ErrLookupFailed = errors.New("chord: lookup failed")

// Message types used by the overlay protocol.
const (
	msgNextHop  = "chord.next_hop"
	msgGetState = "chord.get_state"
	msgNotify   = "chord.notify"
	msgPing     = "chord.ping"
)

type nextHopReq struct {
	Key     chordid.ID
	Exclude []chordid.ID
}

type nextHopResp struct {
	Done bool // Key is owned by Ref (it is the asked node's successor or itself)
	Ref  Ref
	// Hint, when non-zero, is the node the asked node's fingers or successor
	// list say owns Key. Only a not-Done answer to a request without
	// exclusions carries one, and only the hinted node itself can confirm it.
	Hint Ref
}

// routed is the envelope of a delivery sent on an owner hint. It travels under
// the application message's own Type with the application payload inside, and
// carries the key so the receiver can check the key against its own arc before
// the application handler sees anything.
type routed struct {
	Key     chordid.ID
	Payload any
}

// notOwner is the reply to a routed delivery whose key the receiver does not
// own (or cannot tell, its predecessor being unknown).
type notOwner struct {
	Key chordid.ID
}

type stateResp struct {
	Pred  Ref
	Succs []Ref
}

// Node is one Chord peer. All exported methods are safe for concurrent use.
type Node struct {
	ref Ref
	net simnet.Transport
	cfg Config
	met nodeMetrics

	mu    sync.Mutex
	pred  Ref
	succs []Ref // succs[0] is the immediate successor; may equal self
	// fingers holds the stored finger slots in ascending slot order, which is
	// ascending clockwise distance from this node. Only slots whose start
	// lies past succs[0] are stored: every slot starting in (self, succs[0]]
	// resolves to succs[0] by definition, and a slot that resolves to this
	// node itself routes nowhere, so neither is kept or refreshed.
	fingers []finger
	nextFix int // slot the next fixFinger call refreshes; walks from the top down

	app      simnet.Handler     // application handler for non-chord messages
	predHook func(old, new Ref) // arc-change notification, see SetPredChangeHook
}

// NewNode creates a node named name (its ring ID is MD5(name)) and registers
// it on the network. The node initially forms a one-node ring: it is its own
// successor.
func NewNode(net simnet.Transport, name string, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		ref:     Ref{ID: chordid.HashKey(name), Addr: simnet.Addr(name)},
		net:     net,
		cfg:     cfg,
		met:     newNodeMetrics(cfg.Telemetry),
		nextFix: fingerSlots - 1,
	}
	n.succs = []Ref{n.ref}
	net.Register(n.ref.Addr, n)
	return n
}

// Ref returns the node's identity.
func (n *Node) Ref() Ref { return n.ref }

// ID returns the node's ring position.
func (n *Node) ID() chordid.ID { return n.ref.ID }

// Addr returns the node's network address.
func (n *Node) Addr() simnet.Addr { return n.ref.Addr }

// SetAppHandler installs the application-level handler that receives every
// message whose type does not begin with "chord.". SPRITE's indexing-peer
// logic hangs off this hook.
func (n *Node) SetAppHandler(h simnet.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.app = h
}

// SetPredChangeHook installs a callback invoked whenever notify installs a
// different predecessor — the moment this node's ownership arc changes. old
// is the previous predecessor (zero when none was known). The hook runs
// outside the node's lock, so it may call back into the overlay or the
// network; the application layer uses it to hand index entries to a joiner
// the instant stabilization adopts it.
func (n *Node) SetPredChangeHook(fn func(old, new Ref)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.predHook = fn
}

// Successor returns the node's current immediate successor.
func (n *Node) Successor() Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.succs[0]
}

// SuccessorList returns a copy of the node's successor list.
func (n *Node) SuccessorList() []Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Ref, len(n.succs))
	copy(out, n.succs)
	return out
}

// Predecessor returns the node's current predecessor (zero if unknown).
func (n *Node) Predecessor() Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred
}

// FingerCount returns how many finger slots the node currently stores.
func (n *Node) FingerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.fingers)
}

const (
	// fingerDigitBits is the width of one routing digit: base 16, the knee of
	// the hops-versus-entries curve (DESIGN.md §3). It must divide 8 so that
	// a digit never straddles a byte of the identifier.
	fingerDigitBits = 4
	// fingerDigits is the number of non-zero digits per level.
	fingerDigits = 1<<fingerDigitBits - 1
	// fingerSlots is the size of the full (mostly implied) table.
	fingerSlots = chordid.Bits / fingerDigitBits * fingerDigits
)

// finger is one stored finger-table slot.
type finger struct {
	ref  Ref
	slot uint16
	// arc is the top 32 bits of the clockwise length of ref's arc
	// (predecessor, ref] — see arcTop; 0 when the predecessor is unknown. It
	// sits in what would otherwise be padding after slot, so the entry stays
	// 40 bytes.
	arc uint32
}

// arcTop returns the top 32 bits of the clockwise distance from pred to node:
// finger.arc for a node whose predecessor is pred. A key lies in (pred, node]
// if arcTop(key, node) < arcTop(pred, node), which compares the leading 32
// bits of two distances and so is exact except when they tie. When pred is
// node itself, or lies within 2^96 of it, the value is 0 and no key passes.
func arcTop(pred, node chordid.ID) uint32 {
	d := pred.Distance(node)
	return binary.BigEndian.Uint32(d[:4])
}

// slotStart returns the ring position finger slot targets from id:
// id + j·16^ℓ for slot = ℓ·fingerDigits + (j−1). Offsets grow with the slot
// number, so slot order is clockwise-distance order.
func slotStart(id chordid.ID, slot int) chordid.ID {
	return id.Add(slotOffset(slot))
}

// slotOffset returns the clockwise distance j·16^ℓ from a node to the start
// of its finger slot.
func slotOffset(slot int) chordid.ID {
	bit := slot / fingerDigits * fingerDigitBits
	var off chordid.ID
	off[chordid.Bytes-1-bit/8] = byte(slot%fingerDigits+1) << (bit % 8)
	return off
}

// slotImpliedLocked reports whether slot starts in (self, succs[0]] — where
// its value is succs[0] without asking anyone. Every lower slot is then
// implied too. Slot 0 (offset 1) always is, so a downward walk ends here.
func (n *Node) slotImpliedLocked(slot int) bool {
	return slotStart(n.ref.ID, slot).BetweenRightIncl(n.ref.ID, n.succs[0].ID)
}

// setFingerLocked stores ref with its arc in slot, keeping fingers sorted, and
// reports whether the table changed. A slot that resolves to this node is
// removed.
func (n *Node) setFingerLocked(slot int, ref Ref, arc uint32) bool {
	i := sort.Search(len(n.fingers), func(i int) bool { return int(n.fingers[i].slot) >= slot })
	found := i < len(n.fingers) && int(n.fingers[i].slot) == slot
	f := finger{ref: ref, slot: uint16(slot), arc: arc}
	switch {
	case ref.ID == n.ref.ID:
		if found {
			n.fingers = append(n.fingers[:i], n.fingers[i+1:]...)
		}
		return found
	case found:
		changed := n.fingers[i] != f
		n.fingers[i] = f
		return changed
	}
	n.fingers = append(n.fingers, finger{})
	copy(n.fingers[i+1:], n.fingers[i:])
	n.fingers[i] = f
	return true
}

// HandleMessage implements simnet.Handler: overlay messages are served here,
// anything else is forwarded to the application handler.
func (n *Node) HandleMessage(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	switch msg.Type {
	case msgNextHop:
		req := msg.Payload.(nextHopReq)
		resp := n.nextHop(req)
		return simnet.Message{Type: msg.Type, Payload: resp, Size: nextHopRespSize(resp)}, nil
	case msgGetState:
		n.mu.Lock()
		st := stateResp{Pred: n.pred, Succs: append([]Ref(nil), n.succs...)}
		n.mu.Unlock()
		return simnet.Message{Type: msg.Type, Payload: st, Size: refSize * (1 + len(st.Succs))}, nil
	case msgNotify:
		cand := msg.Payload.(Ref)
		n.notify(cand)
		return simnet.Message{Type: msg.Type, Size: 1}, nil
	case msgPing:
		return simnet.Message{Type: msg.Type, Size: 1}, nil
	}
	n.mu.Lock()
	app := n.app
	n.mu.Unlock()
	if app == nil {
		return simnet.Message{}, fmt.Errorf("chord: node %s: no handler for message type %q", n.ref, msg.Type)
	}
	if env, ok := msg.Payload.(routed); ok {
		// Sent on a hint, which may be stale: responsibility is decided here,
		// by this node about its own arc.
		if !n.Serves(env.Key) {
			return simnet.Message{Type: msg.Type, Payload: notOwner{Key: env.Key}, Size: chordid.Bytes}, nil
		}
		msg.Payload, msg.Size = env.Payload, msg.Size-chordid.Bytes
	}
	return app.HandleMessage(from, msg)
}

// Serves reports whether key lies in this node's own arc, (predecessor, self]:
// the rule a routed delivery is checked by, and the same fact a lookup would
// have read off the predecessor's successor pointer. An unknown predecessor
// proves nothing, so a node that has none serves no key. An application that
// addresses items to a node from its own records (a batch to the peer that
// last held them) checks each item's key with it.
func (n *Node) Serves(key chordid.ID) bool {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	return !pred.IsZero() && key.BetweenRightIncl(pred.ID, n.ref.ID)
}

// refSize is the simulated wire size of a Ref (16-byte ID + address).
const refSize = 24

// nextHopReqSize is the simulated wire size of a hop request: the key plus
// one identifier per exclusion.
func nextHopReqSize(exclude []chordid.ID) int { return chordid.Bytes * (1 + len(exclude)) }

// nextHopRespSize is the simulated wire size of a hop answer.
func nextHopRespSize(resp nextHopResp) int {
	if resp.Hint.IsZero() {
		return refSize
	}
	return 2 * refSize
}

// nextHop answers one step of an iterative lookup: if the key falls between
// this node and its first live, non-excluded successor, the lookup is done;
// otherwise return the closest preceding candidate from the finger table and
// successor list — and, when the request excludes nobody, the node this one
// believes owns the key (see ownerHintLocked).
func (n *Node) nextHop(req nextHopReq) nextHopResp {
	// Most hops carry no exclusions; reads on a nil map are free, so only
	// allocate when the lookup is actually routing around failures.
	var excluded map[chordid.ID]bool
	if len(req.Exclude) > 0 {
		excluded = make(map[chordid.ID]bool, len(req.Exclude))
		for _, id := range req.Exclude {
			excluded[id] = true
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()

	// Find the first acceptable successor.
	for _, s := range n.succs {
		if s.IsZero() || excluded[s.ID] {
			continue
		}
		if req.Key.BetweenRightIncl(n.ref.ID, s.ID) {
			return nextHopResp{Done: true, Ref: s}
		}
		break // first acceptable successor does not own the key
	}
	if best, above := n.closestPrecedingLocked(req.Key, excluded); !best.IsZero() {
		resp := nextHopResp{Ref: best}
		if excluded == nil {
			resp.Hint = n.ownerHintLocked(req.Key, above)
		}
		return resp
	}
	// Nothing better than ourselves: fall back to the first acceptable
	// successor so the lookup can limp around the ring.
	for _, s := range n.succs {
		if !s.IsZero() && !excluded[s.ID] && s.ID != n.ref.ID {
			return nextHopResp{Ref: s}
		}
	}
	return nextHopResp{Done: true, Ref: n.ref}
}

// closestPrecedingLocked scans fingers and the successor list for the node
// closest to key that strictly precedes it, skipping excluded nodes. above is
// the index of the lowest stored finger past the one the scan settled on (0
// when no finger precedes the key): the only finger that can name the key's
// owner.
func (n *Node) closestPrecedingLocked(key chordid.ID, excluded map[chordid.ID]bool) (best Ref, above int) {
	acceptable := func(r Ref) bool {
		return !r.IsZero() && !excluded[r.ID] && r.ID != n.ref.ID &&
			r.ID.Between(n.ref.ID, key)
	}
	// Track the candidate with the minimal clockwise distance to the key.
	// Fingers are ordered by clockwise distance from this node, so scanning
	// from the top the first acceptable in-interval finger is already the
	// closest finger preceding the key — the rest need not be scored.
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

// ownerHintLocked names the node this node's own state says owns key, or the
// zero Ref when it cannot tell: a later successor-list entry whose arc holds
// the key, else fingers[above] — the scan in closestPrecedingLocked left it as
// the lowest finger at or past the key, the only one whose arc can hold it —
// if the key lies in that finger's arc (predecessor, finger]. Two facts place
// it there. The finger's stored arc length (see arcTop) covers the whole arc,
// except for a tie in its top 32 bits or an unknown predecessor. The slot rule
// covers the part from the slot's start up: finger[s] = successor(slotStart(s)),
// so no node lies between that start and the finger. Either fact can be stale
// after a join; the receiver's own arc check (Serves) catches that, at the
// cost of the refused round trip.
func (n *Node) ownerHintLocked(key chordid.ID, above int) Ref {
	for i := 1; i < len(n.succs); i++ {
		if key.BetweenRightIncl(n.succs[i-1].ID, n.succs[i].ID) {
			return n.succs[i]
		}
	}
	if above < len(n.fingers) {
		f := n.fingers[above]
		if arcTop(key, f.ref.ID) < f.arc || slotOffset(int(f.slot)).Cmp(n.ref.ID.Distance(key)) <= 0 {
			return f.ref
		}
	}
	return Ref{}
}

// LocalOwner names the node this node's own state says owns key, without
// sending a message: the successor its next-hop answer would call the owner,
// or the owner hint that answer would carry (see ownerHintLocked). It returns
// the zero Ref when this node cannot tell. Like any hint the answer may be
// stale, so an application that addresses the node directly has it check the
// key with Serves.
func (n *Node) LocalOwner(key chordid.ID) Ref {
	resp := n.nextHop(nextHopReq{Key: key})
	if resp.Done {
		return resp.Ref
	}
	return resp.Hint
}

// notify implements Chord's notify: cand believes it may be our predecessor.
func (n *Node) notify(cand Ref) {
	n.mu.Lock()
	if cand.ID == n.ref.ID {
		n.mu.Unlock()
		return
	}
	var old Ref
	changed := false
	if n.pred.IsZero() || cand.ID.Between(n.pred.ID, n.ref.ID) || !n.net.Alive(n.pred.Addr) {
		if n.pred.ID != cand.ID {
			old, changed = n.pred, true
		}
		n.pred = cand
	}
	hook := n.predHook
	n.mu.Unlock()
	if changed && hook != nil {
		hook(old, cand)
	}
}

// Lookup resolves the node responsible for key (its successor on the ring),
// counting one hop per remote RPC issued. Lookups route around failed nodes
// using the exclusion protocol; they fail only if no live owner is reachable
// within maxLookupHops.
func (n *Node) Lookup(key chordid.ID) (Ref, int, error) {
	return n.lookupFrom(context.Background(), n.ref, key, nil, nil)
}

// LookupCtx is Lookup honoring ctx and recording one child span per remote
// hop under parent (a nil parent, the no-telemetry case, is accepted and
// free): every hop RPC carries the caller's deadline, and a canceled context
// aborts the lookup with an error wrapping ctx.Err() rather than excluding
// the hop and routing on.
func (n *Node) LookupCtx(ctx context.Context, key chordid.ID, parent *telemetry.Span) (Ref, int, error) {
	return n.lookupFrom(ctx, n.ref, key, nil, parent)
}

// LookupExcluding resolves the owner of key as if the excluded nodes had
// left the ring: responsibility falls through to the next live successor —
// exactly where §7 successor replication placed the key's replicas. This is
// the failover primitive of the resilient read path: after the true owner
// proves unreachable, look the key up again excluding it to find the replica
// holder.
func (n *Node) LookupExcluding(ctx context.Context, key chordid.ID, exclude []chordid.ID, parent *telemetry.Span) (Ref, int, error) {
	return n.lookupFrom(ctx, n.ref, key, append([]chordid.ID(nil), exclude...), parent)
}

// Sender performs the delivery leg of a route: one request/reply exchange
// with the node at to. RouteVia's caller supplies it to put its own policy —
// timeouts, retries, spans — around that one exchange.
type Sender func(ctx context.Context, to simnet.Addr, msg simnet.Message) (simnet.Message, error)

// Route delivers msg to the node responsible for key and returns its reply,
// the owner that served it, and the routing round trips spent before the
// delivery. It is Lookup followed by a call to the owner, minus one round
// trip whenever a node on the way can name the owner itself: the message then
// goes straight to that node inside an envelope carrying the key, under msg's
// own Type, and the receiver hands it to its application handler only if the
// key lies in its own arc. A refused hint costs that one round trip and turns
// hints off for the rest of the route; a hinted node that is not alive is
// excluded like any dead owner.
//
// hint, when not empty, is the caller's own guess at the owner — typically the
// node that served the key last time. It is tried first, in the same envelope
// and under the same check, so a good one makes the route that one message
// and a stale one costs the one refused round trip; one that is this node or
// is not alive is not sent to, and the walk runs as if none had been given.
//
// A delivery error is returned as it is, together with the owner the message
// was sent to; nothing is delivered twice. A done ctx aborts the route with
// an error wrapping ctx.Err(). span receives one child per routing hop and
// the annotation hinted=true|false|rejected|caller.
func (n *Node) Route(ctx context.Context, key chordid.ID, msg simnet.Message, span *telemetry.Span, hint simnet.Addr) (reply simnet.Message, owner Ref, hops int, err error) {
	return n.RouteVia(ctx, key, msg, span, n.call, hint)
}

// call is the plain Sender: one call from this node over its transport.
func (n *Node) call(ctx context.Context, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return n.net.CallCtx(ctx, n.ref.Addr, to, msg)
}

// RouteVia is Route with the delivery leg performed by send, which receives
// the message exactly as it must reach the owner (enveloped or bare) and may
// repeat it to the same node.
func (n *Node) RouteVia(ctx context.Context, key chordid.ID, msg simnet.Message, span *telemetry.Span, send Sender, hint simnet.Addr) (reply simnet.Message, owner Ref, hops int, err error) {
	// The walk runs below this frame and returns before each delivery, so a
	// handler at the far end of send does not execute on top of it.
	w := n.newWalk(n.ref, key, nil)
	w.hints = true
	hinted := "false"
	defer func() {
		n.observeLookup(owner, w.hops)
		span.Annotate("hinted", hinted)
	}()
	var byHint bool
	switch {
	case hint == "" || hint == n.ref.Addr:
	case !n.net.Alive(hint):
		n.met.hintUnreachable.Inc()
	default:
		// The caller's hint stands in for the first stop of the walk (a
		// node's ring position is the hash of its address, see NewNode).
		byHint, hinted, owner = true, "caller", Ref{ID: chordid.HashKey(string(hint)), Addr: hint}
	}
	for {
		if !byHint {
			if owner, byHint, err = n.advance(ctx, &w, span); err != nil {
				return simnet.Message{}, Ref{}, w.hops, err
			}
			if !byHint {
				reply, err = send(ctx, owner.Addr, msg)
				return reply, owner, w.hops, err
			}
			hinted = "true"
		}
		n.met.hinted.Inc()
		reply, err = send(ctx, owner.Addr, simnet.Message{
			Type:    msg.Type,
			Payload: routed{Key: key, Payload: msg.Payload},
			Size:    msg.Size + chordid.Bytes,
		})
		if _, refused := reply.Payload.(notOwner); err != nil || !refused {
			return reply, owner, w.hops, err
		}
		// The hint was stale. That round trip is spent; the walk carries on
		// from the closest preceding node the same answer named (from this
		// node, if the hint was the caller's), hints off.
		n.met.hintRejected.Inc()
		hinted = "rejected"
		w.hints, byHint = false, false
		w.hops++
	}
}

// lookupFrom resolves key's owner starting at an arbitrary node (used by
// Lookup with start = self, and by JoinRemote with start = a bootstrap peer
// known only by address), with the exclusion list seeded from exclude. It
// never acts on an owner hint, which a bare lookup has no way to verify.
func (n *Node) lookupFrom(ctx context.Context, start Ref, key chordid.ID, exclude []chordid.ID, parent *telemetry.Span) (Ref, int, error) {
	w := n.newWalk(start, key, exclude)
	owner, _, err := n.advance(ctx, &w, parent)
	n.observeLookup(owner, w.hops)
	return owner, w.hops, err
}

// walk is the state of one iterative lookup, kept outside advance so that a
// route can leave the loop to deliver on a hint and re-enter it if refused.
type walk struct {
	start, cur Ref
	// The hop request only changes when the exclusion list grows, so the
	// payload is boxed once per (re)start instead of once per hop — the
	// per-hop interface allocation is pure GC pressure at sweep scale.
	req   nextHopReq
	boxed any
	hops  int
	hints bool // stop at a hinted node, not only at the authoritative owner
	// after is where the walk goes on if the node it last stopped at, on a
	// hint, refuses: the closest preceding node the same answer named.
	after Ref
}

func (n *Node) newWalk(start Ref, key chordid.ID, exclude []chordid.ID) walk {
	n.met.lookups.Inc()
	w := walk{start: start, cur: start, req: nextHopReq{Key: key, Exclude: exclude}}
	w.boxed = w.req
	return w
}

// exclude restarts the walk from its first node with id excluded.
func (w *walk) exclude(id chordid.ID) {
	w.req.Exclude = appendExcluded(w.req.Exclude, id)
	w.boxed = w.req
	w.cur, w.after = w.start, Ref{}
}

// observeLookup feeds a finished walk into the overlay metrics. owner is zero
// exactly when the lookup failed, whatever became of a delivery after it.
func (n *Node) observeLookup(owner Ref, hops int) {
	if owner.IsZero() {
		n.met.lookupsFailed.Inc()
	} else {
		n.met.hops.Observe(int64(hops))
	}
}

// advance runs the iterative lookup protocol until it can name a live node
// to deliver to: the key's authoritative owner, or — when w.hints is set and
// nothing is excluded, since exclusions redefine who owns the key in a way
// only successor lists express — a node some answer hinted at (byHint), which
// only that node can confirm. Called again after such a stop, it carries on
// as if the hint had not been given. Each remote hop is timed as a child span
// of parent when tracing is on.
func (n *Node) advance(ctx context.Context, w *walk, parent *telemetry.Span) (target Ref, byHint bool, err error) {
	if !w.after.IsZero() {
		w.cur, w.after = w.after, Ref{}
	}
	for w.hops <= maxLookupHops {
		var resp nextHopResp
		if w.cur.Addr == n.ref.Addr {
			resp = n.nextHop(w.req)
		} else {
			sp := parent.StartChild("chord.hop")
			sp.Annotate("to", string(w.cur.Addr))
			reply, err := n.net.CallCtx(ctx, n.ref.Addr, w.cur.Addr, simnet.Message{
				Type:    msgNextHop,
				Payload: w.boxed,
				Size:    nextHopReqSize(w.req.Exclude),
			})
			w.hops++
			if err != nil {
				sp.Annotate("error", err.Error())
				sp.Finish()
				if ctx.Err() != nil {
					// The caller gave up: propagate its error, do not route on.
					return Ref{}, false, fmt.Errorf("chord: lookup aborted at hop %d: %w", w.hops, err)
				}
				// cur died mid-lookup; restart with cur excluded.
				w.exclude(w.cur.ID)
				continue
			}
			sp.Finish()
			resp = reply.Payload.(nextHopResp)
		}
		byHint = !resp.Done && w.hints && len(w.req.Exclude) == 0 && !resp.Hint.IsZero()
		switch {
		case byHint:
			target, w.after = resp.Hint, resp.Ref
		case resp.Done:
			if target = resp.Ref; containsID(w.req.Exclude, target.ID) {
				// The ring could not route past the exclusions (e.g. every
				// candidate for the key is excluded or dead): fail rather
				// than loop forever on the same answer.
				return Ref{}, false, fmt.Errorf("%w: all candidates for key excluded", ErrLookupFailed)
			}
		default:
			if resp.Ref.IsZero() || resp.Ref.ID == w.cur.ID {
				return Ref{}, false, fmt.Errorf("%w: no progress at %s", ErrLookupFailed, w.cur)
			}
			w.cur = resp.Ref
			continue
		}
		if n.net.Alive(target.Addr) {
			return target, byHint, nil
		}
		// The owner is dead: exclude it so the responsibility falls
		// through to the next successor (where replicas live, §7).
		if byHint {
			n.met.hintUnreachable.Inc()
		}
		w.exclude(target.ID)
	}
	return Ref{}, false, fmt.Errorf("%w: exceeded %d hops", ErrLookupFailed, maxLookupHops)
}

func appendExcluded(list []chordid.ID, id chordid.ID) []chordid.ID {
	if containsID(list, id) {
		return list
	}
	return append(list, id)
}

func containsID(list []chordid.ID, id chordid.ID) bool {
	for _, e := range list {
		if e == id {
			return true
		}
	}
	return false
}

// stabilize runs one round of Chord's periodic stabilization: verify the
// immediate successor, adopt its predecessor if closer, rebuild the successor
// list from the successor's list, and notify the successor.
func (n *Node) stabilize() {
	n.met.stabilizes.Inc()
	n.mu.Lock()
	succs := append([]Ref(nil), n.succs...)
	self := n.ref
	r := n.cfg.SuccessorListLen
	n.mu.Unlock()

	// First live successor.
	var succ Ref
	for _, s := range succs {
		if s.ID == self.ID || n.net.Alive(s.Addr) {
			succ = s
			break
		}
	}
	if succ.IsZero() {
		// All successors dead: collapse to a singleton ring; later notifies
		// from live nodes will re-absorb us.
		n.mu.Lock()
		n.succs = []Ref{self}
		n.mu.Unlock()
		n.met.succDepth.Set(1)
		return
	}

	if succ.ID != self.ID {
		ctx := context.Background()
		reply, err := n.net.CallCtx(ctx, self.Addr, succ.Addr, simnet.Message{Type: msgGetState, Size: 1})
		if err == nil {
			st := reply.Payload.(stateResp)
			if !st.Pred.IsZero() && st.Pred.ID.Between(self.ID, succ.ID) && n.net.Alive(st.Pred.Addr) {
				// Re-fetch state from the better successor — but re-check
				// liveness before installing it: the candidate can die
				// between the two getState calls, and promoting a corpse
				// would wedge succs[0] on a node that notify can never
				// reach. A failed re-fetch from a still-alive candidate is
				// message loss: promote anyway and pick its list up next
				// round.
				cand := st.Pred
				if reply2, err2 := n.net.CallCtx(ctx, self.Addr, cand.Addr, simnet.Message{Type: msgGetState, Size: 1}); err2 == nil {
					succ, st = cand, reply2.Payload.(stateResp)
				} else if n.net.Alive(cand.Addr) {
					succ = cand
				}
			}
			newSuccs := make([]Ref, 0, r)
			newSuccs = append(newSuccs, succ)
			for _, s := range st.Succs {
				if len(newSuccs) >= r {
					break
				}
				if s.IsZero() || s.ID == self.ID || s.ID == succ.ID {
					continue
				}
				newSuccs = append(newSuccs, s)
			}
			n.mu.Lock()
			n.succs = newSuccs
			n.mu.Unlock()
			n.met.succDepth.Set(int64(len(newSuccs)))
			n.net.CallCtx(ctx, self.Addr, succ.Addr, simnet.Message{Type: msgNotify, Payload: self, Size: refSize})
		} else if !n.net.Alive(succ.Addr) {
			// Successor died between the liveness check and the call; drop it.
			n.mu.Lock()
			if len(n.succs) > 1 {
				n.succs = n.succs[1:]
			} else {
				n.succs = []Ref{self}
			}
			n.mu.Unlock()
		}
		// A failed call to a successor that is still alive was message loss,
		// not death: keep the list and retry next round. Dropping on loss is
		// not just slow to heal — a fresh joiner whose only successor entry
		// loses one packet would collapse to a self-loop that no amount of
		// stabilization can ever re-absorb, since no other node knows it yet.
	} else {
		// We are our own successor. If a predecessor appeared, absorb it.
		n.mu.Lock()
		if !n.pred.IsZero() && n.net.Alive(n.pred.Addr) {
			n.succs = []Ref{n.pred}
		}
		n.mu.Unlock()
	}

	// Drop a dead predecessor so notify can replace it.
	n.mu.Lock()
	if !n.pred.IsZero() && !n.net.Alive(n.pred.Addr) {
		n.pred = Ref{}
	}
	n.mu.Unlock()
}

// fixFinger refreshes one stored finger slot per call, as in the Chord
// paper's fix_fingers, walking from the farthest slot down. When the walk
// reaches a slot implied by the immediate successor it drops whatever is
// stored at or below it (the ring around this node has thinned), wraps to the
// top without a lookup and reports false: one refresh cycle is done.
func (n *Node) fixFinger() bool {
	n.mu.Lock()
	slot := n.nextFix
	if n.slotImpliedLocked(slot) {
		keep := sort.Search(len(n.fingers), func(i int) bool { return int(n.fingers[i].slot) > slot })
		n.fingers = append(n.fingers[:0], n.fingers[keep:]...)
		n.nextFix = fingerSlots - 1
		n.mu.Unlock()
		return false
	}
	n.nextFix = slot - 1
	start := slotStart(n.ref.ID, slot)
	n.mu.Unlock()

	w := n.newWalk(n.ref, start, nil)
	ref, _, err := n.advance(context.Background(), &w, nil)
	n.observeLookup(ref, w.hops)
	if err != nil {
		return true
	}
	// The walk ended at the node whose successor list named ref the owner:
	// its own ring position is where ref's arc begins.
	n.mu.Lock()
	repaired := n.setFingerLocked(slot, ref, arcTop(w.cur.ID, ref.ID))
	n.mu.Unlock()
	if repaired {
		n.met.fingerRepairs.Inc()
	}
	return true
}

// RepairFingers runs one full fixFinger cycle from the top slot and returns
// the number of fixFinger rounds it took.
func (n *Node) RepairFingers() int {
	n.mu.Lock()
	n.nextFix = fingerSlots - 1
	n.mu.Unlock()
	rounds := 1
	for n.fixFinger() {
		rounds++
	}
	return rounds
}

// Join attaches this node to the ring containing bootstrap: it resolves its
// own successor via the bootstrap node and relies on subsequent
// stabilization to repair predecessors, successor lists, and fingers.
func (n *Node) Join(bootstrap *Node) error {
	succ, _, err := bootstrap.Lookup(n.ref.ID)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrap.ref, err)
	}
	n.adoptSuccessor(succ)
	return nil
}

// JoinRemote attaches this node to the ring containing a peer known only by
// its network address — the join path of a cross-process deployment, where
// no *Node handle for the bootstrap exists. The successor of this node's ID
// is resolved by running the iterative lookup protocol starting at the
// bootstrap peer; stabilization then repairs predecessors, successor lists,
// and fingers as usual.
func (n *Node) JoinRemote(bootstrap simnet.Addr) error {
	succ, _, err := n.lookupFrom(context.Background(), Ref{Addr: bootstrap}, n.ref.ID, nil, nil)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrap, err)
	}
	n.adoptSuccessor(succ)
	return nil
}

// dropPeer scrubs a departed peer from this node's overlay state: successor
// list, predecessor, and fingers. Used by Ring.Leave to splice a graceful
// departure out of the ring without waiting for stabilization to time the
// corpse out.
func (n *Node) dropPeer(gone Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	kept := n.succs[:0]
	for _, s := range n.succs {
		if s.ID != gone.ID {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		kept = append(kept, n.ref)
	}
	n.succs = kept
	if n.pred.ID == gone.ID {
		n.pred = Ref{}
	}
	fingers := n.fingers[:0]
	for _, f := range n.fingers {
		if f.ref.ID != gone.ID {
			fingers = append(fingers, f)
		}
	}
	n.fingers = fingers
}

func (n *Node) adoptSuccessor(succ Ref) {
	n.mu.Lock()
	n.pred = Ref{}
	if succ.ID == n.ref.ID {
		// The ring resolved our own position (e.g. we are the first joiner
		// contacting a singleton bootstrap that routed back to us); fall
		// back to a self-loop and let notify/stabilize absorb us.
		succ = n.ref
	}
	n.succs = []Ref{succ}
	n.mu.Unlock()
}
