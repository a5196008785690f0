// Package simnet provides the simulated network substrate the overlay runs
// on. The SPRITE paper evaluates its system in simulation (§6: "Our study is
// based on simulation"); this package reproduces that setting while also
// metering what the paper argues about qualitatively — the number of
// messages, logical hops, and bytes exchanged — so index-construction and
// maintenance costs (§1) can be measured rather than asserted.
//
// The model is a synchronous RPC network: every inter-peer interaction is a
// CallCtx from one address to another carrying a typed message. Delivery is
// reliable unless the destination has been failed with Fail, which models
// peer departure/crash (§7). Latency is simulated, not real: each call is
// assigned a deterministic pseudo-random latency and accounted in Stats, so
// experiments remain fast and bit-for-bit reproducible.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// Addr identifies a peer on the simulated network. In a deployment this would
// be an IP:port pair; in the simulator it is an opaque string.
type Addr string

// Message is a typed payload exchanged between peers. Type drives both
// dispatch and per-type accounting; Size is what the message costs in bytes:
// its payload's encoded length (wire.Size, which counts the codec's lengths
// without encoding), kind prefix and frame header not billed. The sender sets
// it; the network only sums it.
type Message struct {
	Type    string
	Payload any
	Size    int
}

// Handler processes one incoming message and produces a reply. Handlers are
// invoked synchronously by CallCtx; they must not call back into the network
// endpoint that is mid-call on the same goroutine chain unless the overlay is
// re-entrant (the Chord implementation is).
type Handler interface {
	HandleMessage(from Addr, msg Message) (Message, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg Message) (Message, error)

// HandleMessage calls f(from, msg).
func (f HandlerFunc) HandleMessage(from Addr, msg Message) (Message, error) {
	return f(from, msg)
}

// ErrUnreachable is returned by CallCtx when the destination peer is failed or
// was never registered.
var ErrUnreachable = errors.New("simnet: peer unreachable")

// Transport is the abstract peer-to-peer message substrate the overlay and
// SPRITE run on. Network (the in-process simulator) is the primary
// implementation; internal/transport provides a TCP implementation so the
// same stack runs over real sockets. Implementations must be safe for
// concurrent use.
type Transport interface {
	// Register attaches a handler at addr, making the peer reachable.
	Register(addr Addr, h Handler)
	// Unregister removes the peer.
	Unregister(addr Addr)
	// CallCtx performs a synchronous RPC; transport-level failures are
	// reported with errors wrapping ErrUnreachable. An already-canceled or
	// expired context fails immediately with an error wrapping ctx.Err()
	// (never ErrUnreachable, so retry layers do not retry a caller that gave
	// up), and deadlines bound the call's duration. Call sites with no
	// deadline to carry pass context.Background(). A call from a peer to
	// itself (from == to, to registered on this transport) crosses no
	// network: its handler runs on the caller's goroutine, and the call is
	// counted only as a local bypass, never as traffic, since a peer reading
	// its own index costs nothing in the paper's cost model.
	CallCtx(ctx context.Context, from, to Addr, msg Message) (Message, error)
	// Alive reports whether addr is believed reachable. Implementations may
	// be optimistic — a true result does not guarantee the next CallCtx
	// succeeds — but must return false for peers known to be gone.
	Alive(addr Addr) bool
}

// FaultInjector is the optional capability of simulated transports to crash
// and revive peers without losing their state.
type FaultInjector interface {
	Fail(addr Addr)
	Recover(addr Addr)
}

var (
	_ Transport     = (*Network)(nil)
	_ FaultInjector = (*Network)(nil)
)

// LatencyModel produces a simulated one-way latency for a call. Models must
// be deterministic functions of the supplied rng state.
type LatencyModel func(rng *rand.Rand) time.Duration

// UniformLatency returns a model drawing latencies uniformly from [lo, hi).
func UniformLatency(lo, hi time.Duration) LatencyModel {
	if hi < lo {
		lo, hi = hi, lo
	}
	return func(rng *rand.Rand) time.Duration {
		if hi == lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
}

// Stats is a snapshot of the network's accounting counters.
type Stats struct {
	Calls       int64            // total RPCs attempted
	Failed      int64            // RPCs that hit an unreachable peer
	Dropped     int64            // RPCs lost to injected packet loss or drop schedules
	Expired     int64            // RPCs refused because the caller's context was done
	Bytes       int64            // sum of request+reply Size fields
	SimLatency  time.Duration    // accumulated simulated round-trip latency
	CallsByType map[string]int64 // per message type
	BytesByType map[string]int64 // per message type
	CallsByDest map[Addr]int64   // per destination peer (load distribution)
	LocalBypass int64            // calls short-circuited because from == to
	PeersFailed int              // currently failed peers
	PeersAlive  int              // currently registered and reachable peers
}

// Network is the simulated transport. It is safe for concurrent use.
//
// All pseudo-randomness (latency draws) comes from the per-Network source
// seeded in New — never from the global math/rand source — so two Networks
// built with the same seed assign bit-for-bit identical latencies regardless
// of what other goroutines or packages draw, including under -race and
// parallel tests.
type Network struct {
	mu      sync.Mutex
	peers   map[Addr]Handler
	failed  map[Addr]bool
	rng     *rand.Rand
	latency LatencyModel
	stats   Stats
	sleep   bool // whether simulated latency is also slept (wall-clock mode)
	lean    bool // aggregate counters only, no per-type/per-dest breakdowns
	clock   vtime.Clock
	tel     *telemetry.Registry

	// Fault-injection knobs for resilience testing. lossRng is a separate
	// source (seeded from the main seed) so enabling packet loss never
	// perturbs the latency draw sequence existing experiments depend on.
	lossRng  *rand.Rand
	lossProb float64
	// dropNext schedules deterministic transient faults: the next
	// dropNext[addr] calls to addr are dropped (the peer stays Alive).
	// dropSkip delays a schedule: that many calls pass through first.
	dropNext map[Addr]int
	dropSkip map[Addr]int
}

// Option configures a Network.
type Option func(*Network)

// WithLatency installs a latency model. The default is zero latency.
func WithLatency(m LatencyModel) Option {
	return func(n *Network) { n.latency = m }
}

// WithClock installs the clock used for deadline checks and slept latency.
// The default is the wall clock; experiments install a *vtime.Sim so slept
// round trips become deterministic virtual waits and deadline math runs on
// virtual time (see DESIGN.md §9).
func WithClock(c vtime.Clock) Option {
	return func(n *Network) { n.clock = c }
}

// WithTelemetry mirrors the network's per-message-type accounting into the
// given registry (call counts, byte totals, simulated latency histogram,
// unreachable-destination counts). A nil registry leaves instrumentation
// off; the transport then pays only a nil check per call.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(n *Network) { n.tel = reg }
}

// WithLeanStats keeps only the aggregate counters (Calls, Bytes, latency
// sum, failure counts) and skips the per-message-type and per-destination
// breakdown maps. Those maps cost a string hash and map write per call —
// noise normally, but the dominant transport overhead in sweeps that push
// tens of millions of calls through a single-threaded simulation.
func WithLeanStats() Option {
	return func(n *Network) { n.lean = true }
}

func clamp01(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// New creates a network whose pseudo-random choices (latency draws, loss
// draws) derive from seed.
func New(seed int64, opts ...Option) *Network {
	n := &Network{
		peers:    make(map[Addr]Handler),
		failed:   make(map[Addr]bool),
		rng:      rand.New(rand.NewSource(seed)),
		lossRng:  rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		clock:    vtime.Wall,
		dropNext: make(map[Addr]int),
		dropSkip: make(map[Addr]int),
		stats: Stats{
			CallsByType: make(map[string]int64),
			BytesByType: make(map[string]int64),
			CallsByDest: make(map[Addr]int64),
		},
	}
	for _, o := range opts {
		o(n)
	}
	n.clock = vtime.Default(n.clock)
	return n
}

// Clock returns the network's clock (never nil).
func (n *Network) Clock() vtime.Clock { return n.clock }

// SetPacketLoss drops each later inter-peer call independently with
// probability p (clamped to [0, 1]). Lost calls fail with ErrUnreachable
// while the destination stays Alive — the transient-fault signature retry
// layers are built for. Loss draws come from a dedicated rng, so turning the
// knob does not change the latency sequences of loss-free runs. The churn
// experiment uses it to switch loss on only for the query phase.
func (n *Network) SetPacketLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossProb = clamp01(p)
}

// SetSleepLatency toggles sleeping-latency mode: each call actually sleeps
// its simulated round trip (context-aware) in addition to accounting it in
// Stats. By default latency is accounted only, keeping experiments fast;
// sleeping mode turns simulated latency into clock latency so concurrency
// benefits (e.g. parallel per-term fan-out) become measurable. The scale
// experiment and the eval twin tests enable it only for the measured query
// phase so deployment construction stays fast.
func (n *Network) SetSleepLatency(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sleep = on
}

// DropCalls schedules the next count calls addressed to to (local-bypass
// calls excluded) to be dropped with ErrUnreachable while the peer stays
// Alive. count <= 0 clears the schedule. This is the deterministic
// counterpart of SetPacketLoss for retry/failover tests: exactly the first
// count attempts fail, every later one succeeds.
func (n *Network) DropCalls(to Addr, count int) {
	n.DropCallsAfter(to, 0, count)
}

// DropCallsAfter is DropCalls with a delay: the next skip calls addressed to
// to go through normally, then the following count calls are dropped. It
// pins a fault to a precise point in a deterministic call sequence — e.g.
// "let the poll through, then drop the unpublish that follows" — which is
// how the regression tests reproduce mid-operation partial failures.
// count <= 0 clears any schedule for to.
func (n *Network) DropCallsAfter(to Addr, skip, count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if count <= 0 {
		delete(n.dropNext, to)
		delete(n.dropSkip, to)
		return
	}
	n.dropNext[to] = count
	if skip > 0 {
		n.dropSkip[to] = skip
	} else {
		delete(n.dropSkip, to)
	}
}

// ClearDrops removes every pending drop schedule (but not packet loss).
func (n *Network) ClearDrops() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropNext = make(map[Addr]int)
	n.dropSkip = make(map[Addr]int)
}

// PendingDrops returns the total number of drops still scheduled across all
// destinations. The chaos harness uses it to decide whether deterministic
// invariant checks are currently meaningful.
func (n *Network) PendingDrops() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, c := range n.dropNext {
		total += c
	}
	return total
}

// Register attaches a handler at addr, replacing any previous registration
// and clearing a failed state if present.
func (n *Network) Register(addr Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[addr] = h
	delete(n.failed, addr)
}

// Unregister removes a peer entirely, as when a peer leaves the network
// gracefully.
func (n *Network) Unregister(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.peers, addr)
	delete(n.failed, addr)
}

// Fail marks a peer as crashed: subsequent calls to it return
// ErrUnreachable, but its state (handler) is retained so Recover can bring
// it back, modelling a transient departure.
func (n *Network) Fail(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.peers[addr]; ok {
		n.failed[addr] = true
	}
}

// Recover clears a peer's failed state.
func (n *Network) Recover(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.failed, addr)
}

// Alive reports whether addr is registered and not failed.
func (n *Network) Alive(addr Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.aliveLocked(addr)
}

func (n *Network) aliveLocked(addr Addr) bool {
	_, ok := n.peers[addr]
	return ok && !n.failed[addr]
}

// CallCtx performs a synchronous RPC from one peer to another. The reply and
// error come from the destination handler; transport-level failures surface
// as ErrUnreachable. Calls from a peer to itself bypass the network, as
// Transport says; a failed peer's call to itself is unreachable. A context that is already done fails immediately with an
// error wrapping ctx.Err() (never ErrUnreachable), and a call whose simulated
// round trip would overrun the context's deadline fails with
// context.DeadlineExceeded — the simulator's stand-in for a wall-clock
// timeout, since simulated latency is accounted rather than slept.
func (n *Network) CallCtx(ctx context.Context, from, to Addr, msg Message) (Message, error) {
	if cerr := ctx.Err(); cerr != nil {
		n.mu.Lock()
		n.stats.Expired++
		n.mu.Unlock()
		if n.tel != nil {
			n.tel.Counter("simnet.ctx_expired").Inc()
		}
		return Message{}, fmt.Errorf("simnet: %s to %s aborted: %w", msg.Type, to, cerr)
	}
	n.mu.Lock()
	h, ok := n.peers[to]
	alive := ok && !n.failed[to]
	local := from == to
	if local {
		n.stats.LocalBypass++
		n.mu.Unlock()
		if n.tel != nil {
			n.tel.Counter("simnet.local_bypass").Inc()
		}
		if !alive {
			return Message{}, fmt.Errorf("%w: %s (self)", ErrUnreachable, to)
		}
		return h.HandleMessage(from, msg)
	}
	n.stats.Calls++
	n.stats.Bytes += int64(msg.Size)
	if !n.lean {
		n.stats.CallsByType[msg.Type]++
		n.stats.CallsByDest[to]++
		n.stats.BytesByType[msg.Type] += int64(msg.Size)
	}
	var simRTT time.Duration
	if n.latency != nil {
		simRTT = 2 * n.latency(n.rng) // round trip
		n.stats.SimLatency += simRTT
	}
	sleep := n.sleep
	if !alive {
		n.stats.Failed++
		n.mu.Unlock()
		if n.tel != nil {
			n.tel.Counter("simnet.calls." + msg.Type).Inc()
			n.tel.Counter("simnet.bytes." + msg.Type).Add(int64(msg.Size))
			n.tel.Counter("simnet.unreachable").Inc()
		}
		return Message{}, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	// Injected transient faults: a scheduled drop (DropCalls) takes priority,
	// then probabilistic loss. Either way the destination stays Alive — the
	// failure looks exactly like a packet lost on the wire.
	drop := false
	if s := n.dropSkip[to]; s > 0 {
		n.dropSkip[to] = s - 1
	} else if c := n.dropNext[to]; c > 0 {
		n.dropNext[to] = c - 1
		drop = true
	} else if n.lossProb > 0 && n.lossRng.Float64() < n.lossProb {
		drop = true
	}
	if drop {
		n.stats.Dropped++
		n.mu.Unlock()
		if n.tel != nil {
			n.tel.Counter("simnet.calls." + msg.Type).Inc()
			n.tel.Counter("simnet.bytes." + msg.Type).Add(int64(msg.Size))
			n.tel.Counter("simnet.dropped").Inc()
		}
		return Message{}, fmt.Errorf("%w: %s (packet lost)", ErrUnreachable, to)
	}
	// A simulated round trip that overruns the caller's deadline is a timeout:
	// latency is accounted, not slept, so the deadline must be enforced here
	// for it to mean anything in simulation.
	if dl, ok := ctx.Deadline(); ok && simRTT > 0 && n.clock.Now().Add(simRTT).After(dl) {
		n.stats.Expired++
		n.mu.Unlock()
		if n.tel != nil {
			n.tel.Counter("simnet.calls." + msg.Type).Inc()
			n.tel.Counter("simnet.bytes." + msg.Type).Add(int64(msg.Size))
			n.tel.Counter("simnet.ctx_expired").Inc()
		}
		return Message{}, fmt.Errorf("simnet: %s to %s overran deadline (simulated rtt %v): %w",
			msg.Type, to, simRTT, context.DeadlineExceeded)
	}
	n.mu.Unlock()

	// Sleeping-latency mode: actually wait out the simulated round trip
	// (outside the lock, context-aware) so clocks observe it. Under the wall
	// clock this is a real timer; under a virtual clock it is a scheduler
	// event that costs no wall time.
	if sleep && simRTT > 0 {
		if serr := n.clock.Sleep(ctx, simRTT); serr != nil {
			n.mu.Lock()
			n.stats.Expired++
			n.mu.Unlock()
			if n.tel != nil {
				n.tel.Counter("simnet.calls." + msg.Type).Inc()
				n.tel.Counter("simnet.bytes." + msg.Type).Add(int64(msg.Size))
				n.tel.Counter("simnet.ctx_expired").Inc()
			}
			return Message{}, fmt.Errorf("simnet: %s to %s aborted in flight: %w", msg.Type, to, serr)
		}
	}

	reply, err := h.HandleMessage(from, msg)
	if err == nil {
		n.mu.Lock()
		n.stats.Bytes += int64(reply.Size)
		if !n.lean {
			n.stats.BytesByType[msg.Type] += int64(reply.Size)
		}
		n.mu.Unlock()
	}
	if n.tel != nil {
		n.tel.Counter("simnet.calls." + msg.Type).Inc()
		n.tel.Counter("simnet.bytes." + msg.Type).Add(int64(msg.Size) + int64(reply.Size))
		if n.latency != nil {
			n.tel.Histogram("simnet.latency_us").Observe(simRTT.Microseconds())
		}
		if err != nil {
			n.tel.Counter("simnet.handler_errors").Inc()
		}
	}
	return reply, err
}

// Stats returns a copy of the current counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.CallsByType = make(map[string]int64, len(n.stats.CallsByType))
	for k, v := range n.stats.CallsByType {
		out.CallsByType[k] = v
	}
	out.BytesByType = make(map[string]int64, len(n.stats.BytesByType))
	for k, v := range n.stats.BytesByType {
		out.BytesByType[k] = v
	}
	out.CallsByDest = make(map[Addr]int64, len(n.stats.CallsByDest))
	for k, v := range n.stats.CallsByDest {
		out.CallsByDest[k] = v
	}
	out.PeersFailed = len(n.failed)
	alive := 0
	for a := range n.peers {
		if !n.failed[a] {
			alive++
		}
	}
	out.PeersAlive = alive
	return out
}

// ResetStats zeroes the counters while leaving the peer set untouched. The
// experiment harness uses it to measure phases (index construction vs. query
// processing) independently.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{
		CallsByType: make(map[string]int64),
		BytesByType: make(map[string]int64),
		CallsByDest: make(map[Addr]int64),
	}
}

// Peers returns the addresses of all registered peers (alive or failed) in
// sorted order.
func (n *Network) Peers() []Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Addr, 0, len(n.peers))
	for a := range n.peers {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
