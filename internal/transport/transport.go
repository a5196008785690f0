// Package transport is the TCP implementation of simnet.Transport:
// persistent per-peer connection pools, request-ID multiplexing so any number
// of in-flight RPCs share a socket, the length-prefixed binary codec of
// internal/wire for every payload, and per-destination micro-batching of
// concurrent sends into single buffered writes.
//
// The contract is the simnet one: transport-level failures (dial refused,
// peer hung, connection reset mid-call) wrap simnet.ErrUnreachable so the
// overlay routes around them, while caller-initiated cancellation wraps
// ctx.Err() and is never retried or negative-cached. A payload whose type
// has no binary codec is an encode error at the caller; nothing is sent.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// Option configures a Transport.
type Option func(*Transport)

// WithDialTimeout sets the connection-establishment timeout (default 2s).
func WithDialTimeout(d time.Duration) Option {
	return func(t *Transport) { t.dialTimeout = d }
}

// WithCallTimeout bounds one RPC's round trip (default 5s). Because many
// calls multiplex on one socket, this is enforced per call with a timer, not
// with a socket deadline; a call that times out closes the connection (the
// peer is presumed wedged) and negative-caches the peer.
func WithCallTimeout(d time.Duration) Option {
	return func(t *Transport) { t.callTimeout = d }
}

// WithDeadPeerTTL sets how long a peer that failed a dial or timed out is
// negative-cached as dead before calls and Alive probe it again (default
// 1s). Non-positive values are ignored.
func WithDeadPeerTTL(d time.Duration) Option {
	return func(t *Transport) {
		if d > 0 {
			t.deadTTL = d
		}
	}
}

// WithIdleTimeout sets how long a pooled connection may sit with no
// in-flight calls before the reaper closes it (default 60s). Non-positive
// values are ignored.
func WithIdleTimeout(d time.Duration) Option {
	return func(t *Transport) {
		if d > 0 {
			t.idleTimeout = d
		}
	}
}

// WithMaxConnsPerPeer caps the pool size per destination (default 2). The
// pool dials a second connection only when every existing one has
// muxPressure calls in flight, so the cap is a burst valve, not a target.
func WithMaxConnsPerPeer(n int) Option {
	return func(t *Transport) {
		if n > 0 {
			t.maxConns = n
		}
	}
}

// WithTelemetry records dials, open/idle connection gauges (with peaks),
// per-peer in-flight gauges, batch-size and latency histograms, per-codec
// byte counters, and per-type call counts into reg.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(t *Transport) { t.tel = reg }
}

// muxPressure is the in-flight count on the least-loaded connection above
// which the pool dials another (subject to WithMaxConnsPerPeer).
const muxPressure = 64

// Transport is a pooled, multiplexed TCP implementation of simnet.Transport.
// One instance can host many local peers (each Register binds a listener)
// and pools outbound connections per destination address.
type Transport struct {
	dialTimeout time.Duration
	callTimeout time.Duration
	idleTimeout time.Duration
	deadTTL     time.Duration
	maxConns    int
	tel         *telemetry.Registry
	met         metrics

	mu        sync.Mutex
	local     map[simnet.Addr]*listener
	pools     map[simnet.Addr]*pool
	deadUntil map[simnet.Addr]time.Time
	lastErr   error
	closed    bool

	reapStop chan struct{}
	reapDone chan struct{}
}

// New creates a transport. Close must be called to release its pooled
// connections and the idle reaper.
func New(opts ...Option) *Transport {
	t := &Transport{
		dialTimeout: 2 * time.Second,
		callTimeout: 5 * time.Second,
		idleTimeout: 60 * time.Second,
		deadTTL:     time.Second,
		maxConns:    2,
		local:       make(map[simnet.Addr]*listener),
		pools:       make(map[simnet.Addr]*pool),
		deadUntil:   make(map[simnet.Addr]time.Time),
		reapStop:    make(chan struct{}),
		reapDone:    make(chan struct{}),
	}
	for _, o := range opts {
		o(t)
	}
	t.met.init(t.tel)
	go t.reapLoop()
	return t
}

// listener is one locally hosted peer: a bound TCP listener plus the set of
// accepted multiplexed connections (closed with it).
type listener struct {
	ln   net.Listener
	done chan struct{}

	mu      sync.Mutex
	handler simnet.Handler
	conns   map[*serverConn]struct{}
}

func (l *listener) currentHandler() simnet.Handler {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.handler
}

func (l *listener) addConn(c *serverConn) {
	l.mu.Lock()
	l.conns[c] = struct{}{}
	l.mu.Unlock()
}

func (l *listener) removeConn(c *serverConn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

func (l *listener) closeAll() {
	close(l.done)
	l.ln.Close()
	l.mu.Lock()
	conns := make([]*serverConn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

// Register binds a TCP listener at addr and serves incoming RPCs with h.
// addr must be a dialable host:port. If binding fails the peer is recorded
// as dead; LastError reports the cause.
func (t *Transport) Register(addr simnet.Addr, h simnet.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		t.lastErr = fmt.Errorf("transport: register %s: transport closed", addr)
		return
	}
	if old, ok := t.local[addr]; ok {
		old.mu.Lock()
		old.handler = h
		old.mu.Unlock()
		return
	}
	ln, err := net.Listen("tcp", string(addr))
	if err != nil {
		t.deadUntil[addr] = time.Now().Add(24 * time.Hour)
		t.lastErr = fmt.Errorf("transport: listen %s: %w", addr, err)
		return
	}
	l := &listener{
		ln:      ln,
		handler: h,
		done:    make(chan struct{}),
		conns:   make(map[*serverConn]struct{}),
	}
	t.local[addr] = l
	delete(t.deadUntil, addr)
	go t.serve(l)
}

// LastError returns the most recent registration failure, if any.
func (t *Transport) LastError() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastErr
}

// Unregister closes addr's listener and every connection accepted on it.
func (t *Transport) Unregister(addr simnet.Addr) {
	t.mu.Lock()
	l, ok := t.local[addr]
	if ok {
		delete(t.local, addr)
	}
	t.mu.Unlock()
	if ok {
		l.closeAll()
	}
}

// Close shuts down every listener, server connection, and pooled client
// connection, and stops the idle reaper. Calls in flight fail.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	ls := make([]*listener, 0, len(t.local))
	for _, l := range t.local {
		ls = append(ls, l)
	}
	t.local = make(map[simnet.Addr]*listener)
	ps := make([]*pool, 0, len(t.pools))
	for _, p := range t.pools {
		ps = append(ps, p)
	}
	t.pools = make(map[simnet.Addr]*pool)
	t.mu.Unlock()

	close(t.reapStop)
	for _, l := range ls {
		l.closeAll()
	}
	for _, p := range ps {
		p.closeAll(errors.New("transport closed"))
	}
	<-t.reapDone
}

func (t *Transport) serve(l *listener) {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.done:
				return
			default:
				continue
			}
		}
		sc := newServerConn(t, l, conn)
		l.addConn(sc)
	}
}

// pool holds the client connections to one destination.
type pool struct {
	t        *Transport
	addr     simnet.Addr
	inflight *telemetry.Gauge

	mu      sync.Mutex
	conns   []*clientConn
	dialing int
	dialed  chan struct{} // closed when an in-progress dial completes; nil when idle
}

func (t *Transport) pool(addr simnet.Addr) *pool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pools[addr]
	if !ok {
		p = &pool{t: t, addr: addr, inflight: t.tel.Gauge("tcp.inflight." + string(addr))}
		t.pools[addr] = p
	}
	return p
}

// get returns a connection to use for one call: the least-loaded open
// connection, dialing a new one when the pool is empty or every connection
// is above the mux-pressure threshold and the cap allows. Concurrent callers
// arriving at an empty pool coalesce onto one dial instead of each opening a
// socket — the point of pooling is that a burst of fan-out calls shares
// connections.
func (p *pool) get(ctx context.Context) (*clientConn, error) {
	for {
		p.mu.Lock()
		best := p.leastLoadedLocked()
		if best != nil {
			_, inflight := best.idleState()
			if len(p.conns)+p.dialing >= p.t.maxConns || inflight < muxPressure {
				p.mu.Unlock()
				return best, nil
			}
		}
		if best == nil && p.dialing > 0 {
			// Someone else is already dialing the first connection; share it.
			if p.dialed == nil {
				p.dialed = make(chan struct{})
			}
			wait := p.dialed
			p.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				p.t.met.errCtx.Inc()
				return nil, fmt.Errorf("transport: dial %s: %w", p.addr, ctx.Err())
			}
		}
		p.dialing++
		p.mu.Unlock()

		c, err := p.dial(ctx)
		p.mu.Lock()
		p.dialing--
		if p.dialed != nil {
			close(p.dialed)
			p.dialed = nil
		}
		p.mu.Unlock()
		if err != nil {
			if best != nil {
				// The existing connection outranks a failed growth dial.
				return best, nil
			}
			return nil, err
		}
		return c, nil
	}
}

func (p *pool) leastLoadedLocked() *clientConn {
	var best *clientConn
	var bestLoad int64
	for _, c := range p.conns {
		_, load := c.idleState()
		if best == nil || load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best
}

// dial establishes, registers, and returns a fresh connection.
func (p *pool) dial(ctx context.Context) (*clientConn, error) {
	t := p.t
	d := net.Dialer{Timeout: t.dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", string(p.addr))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			t.met.errCtx.Inc()
			return nil, fmt.Errorf("transport: dial %s: %w", p.addr, cerr)
		}
		t.markDead(p.addr)
		t.met.dialErrors.Inc()
		return nil, fmt.Errorf("%w: %s: %v", simnet.ErrUnreachable, p.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := newClientConn(t, p, nc)

	t.mu.Lock()
	closed := t.closed
	if !closed {
		delete(t.deadUntil, p.addr)
	}
	t.mu.Unlock()
	if closed {
		c.close(errors.New("transport closed"))
		return nil, fmt.Errorf("transport: dial %s: transport closed", p.addr)
	}
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
	t.met.dials.Inc()
	t.met.connsOpen.Add(1)
	return c, nil
}

// remove drops a retired connection from the pool.
func (p *pool) remove(c *clientConn) {
	p.mu.Lock()
	for i, pc := range p.conns {
		if pc == c {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			p.mu.Unlock()
			p.t.met.connsOpen.Add(-1)
			return
		}
	}
	p.mu.Unlock()
}

// closeAll retires every connection (transport shutdown).
func (p *pool) closeAll(cause error) {
	p.mu.Lock()
	conns := append([]*clientConn(nil), p.conns...)
	p.mu.Unlock()
	for _, c := range conns {
		c.close(cause)
	}
}

// size reports open connections in this pool.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// OpenConns reports the total pooled client connections currently open —
// what the mux tests assert on and the benchmark reports.
func (t *Transport) OpenConns() int {
	t.mu.Lock()
	pools := make([]*pool, 0, len(t.pools))
	for _, p := range t.pools {
		pools = append(pools, p)
	}
	t.mu.Unlock()
	n := 0
	for _, p := range pools {
		n += p.size()
	}
	return n
}

// reapLoop periodically retires connections idle past the idle timeout and
// refreshes the idle-connection gauge.
func (t *Transport) reapLoop() {
	defer close(t.reapDone)
	interval := t.idleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 15*time.Second {
		interval = 15 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.reapStop:
			return
		case <-tick.C:
			t.reapOnce(time.Now())
		}
	}
}

func (t *Transport) reapOnce(now time.Time) {
	t.mu.Lock()
	pools := make([]*pool, 0, len(t.pools))
	for _, p := range t.pools {
		pools = append(pools, p)
	}
	t.mu.Unlock()
	idle := int64(0)
	for _, p := range pools {
		p.mu.Lock()
		conns := append([]*clientConn(nil), p.conns...)
		p.mu.Unlock()
		for _, c := range conns {
			lastUsed, inflight := c.idleState()
			if inflight > 0 {
				continue
			}
			if now.Sub(lastUsed) > t.idleTimeout {
				c.close(errors.New("idle timeout"))
			} else {
				idle++
			}
		}
	}
	t.met.connsIdle.Set(idle)
}

// Call performs a synchronous RPC over a pooled connection.
func (t *Transport) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return t.CallCtx(context.Background(), from, to, msg)
}

// CallCtx is Call honoring ctx. Caller-initiated cancellation wraps
// ctx.Err(); transport failures — dial refused, negative-cached dead peer,
// per-call timeout against a wedged peer, connection reset mid-call — wrap
// simnet.ErrUnreachable. A call whose request frame provably never reached
// the socket (the pooled connection was retired first) is retried once on a
// fresh connection; a call that may have been delivered is never retried
// here, because the transport cannot know whether the handler ran.
func (t *Transport) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	if cerr := ctx.Err(); cerr != nil {
		t.met.errCtx.Inc()
		return simnet.Message{}, fmt.Errorf("transport: %s to %s aborted: %w", msg.Type, to, cerr)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return simnet.Message{}, fmt.Errorf("%w: %s: transport closed", simnet.ErrUnreachable, to)
	}
	if until, ok := t.deadUntil[to]; ok && time.Now().Before(until) {
		t.mu.Unlock()
		t.met.errDead.Inc()
		return simnet.Message{}, fmt.Errorf("%w: %s: negative-cached", simnet.ErrUnreachable, to)
	}
	t.mu.Unlock()

	start := time.Now()
	p := t.pool(to)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, err := p.get(ctx)
		if err != nil {
			return simnet.Message{}, err
		}
		reply, err := t.callOn(ctx, c, from, to, msg)
		if errors.Is(err, errConnClosed) {
			// The frame never reached the kernel; safe to retry once on a
			// fresh connection (covers a pooled conn retired by a peer
			// restart between calls).
			lastErr = err
			continue
		}
		if err != nil {
			return simnet.Message{}, err
		}
		t.met.call(msg.Type, msg.Size+reply.Size, time.Since(start))
		return reply, nil
	}
	// Neither attempt's connection stayed open long enough to carry the
	// frame: the peer drops connections, as one dying mid-call does.
	t.markDead(to)
	t.met.errSend.Inc()
	return simnet.Message{}, fmt.Errorf("%w: %s: %v", simnet.ErrUnreachable, to, lastErr)
}

// callOn runs one attempt over a specific connection.
func (t *Transport) callOn(ctx context.Context, c *clientConn, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	id, ch, err := c.call(from, msg)
	if err != nil {
		if errors.Is(err, errConnClosed) {
			return simnet.Message{}, err
		}
		t.met.errEncode.Inc()
		return simnet.Message{}, err
	}
	timer := time.NewTimer(t.callTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		c.touch()
		if res.err != nil {
			// Connection died mid-call: the request may or may not have been
			// delivered, so this is unreachable, not retryable, and the peer
			// (crashed or restarting) is negative-cached.
			if cerr := ctx.Err(); cerr != nil {
				t.met.errCtx.Inc()
				return simnet.Message{}, fmt.Errorf("transport: %s to %s: %w", msg.Type, to, cerr)
			}
			t.markDead(to)
			t.met.errConn.Inc()
			return simnet.Message{}, fmt.Errorf("%w: %s: %v", simnet.ErrUnreachable, to, res.err)
		}
		if res.resp.errMsg != "" {
			t.met.errRemote.Inc()
			return simnet.Message{}, fmt.Errorf("transport: remote %s: %s", to, res.resp.errMsg)
		}
		payload, err := decodePayload(res.resp.codec, res.resp.payload)
		if err != nil {
			t.met.errDecode.Inc()
			return simnet.Message{}, fmt.Errorf("transport: reply from %s: %w", to, err)
		}
		return simnet.Message{Type: res.resp.msgType, Payload: payload, Size: res.resp.size}, nil
	case <-ctx.Done():
		c.finish(id)
		t.met.errCtx.Inc()
		return simnet.Message{}, fmt.Errorf("transport: %s to %s: %w", msg.Type, to, ctx.Err())
	case <-timer.C:
		// The peer accepted the frame but never answered within the call
		// timeout: presume it wedged, retire the shared socket (other calls
		// on it fail fast instead of waiting out their own timers), and
		// negative-cache the peer.
		c.finish(id)
		c.close(fmt.Errorf("call timeout after %v", t.callTimeout))
		t.markDead(to)
		t.met.errTimeout.Inc()
		return simnet.Message{}, fmt.Errorf("%w: %s: call timeout", simnet.ErrUnreachable, to)
	}
}

// Alive reports reachability: local listeners are authoritative, then the
// negative cache, then any open pooled connection; otherwise it probes with
// a dial whose connection is kept in the pool (a successful probe warms the
// path the next call uses).
func (t *Transport) Alive(addr simnet.Addr) bool {
	t.mu.Lock()
	if _, ok := t.local[addr]; ok {
		t.mu.Unlock()
		return true
	}
	if until, ok := t.deadUntil[addr]; ok && time.Now().Before(until) {
		t.mu.Unlock()
		return false
	}
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return false
	}
	p := t.pool(addr)
	if p.size() > 0 {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.dialTimeout)
	defer cancel()
	if _, err := p.get(ctx); err != nil {
		return false
	}
	return true
}

func (t *Transport) markDead(addr simnet.Addr) {
	t.mu.Lock()
	t.deadUntil[addr] = time.Now().Add(t.deadTTL)
	t.mu.Unlock()
}

// FreeAddrs reserves n distinct loopback TCP addresses and returns them.
// Each address was bound once (so the kernel considers it assigned) and
// released; callers should Register promptly to reclaim it.
func FreeAddrs(n int) ([]simnet.Addr, error) {
	addrs := make([]simnet.Addr, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: reserve address: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, simnet.Addr(ln.Addr().String()))
	}
	return addrs, nil
}

var _ simnet.Transport = (*Transport)(nil)
