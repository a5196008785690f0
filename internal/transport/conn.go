package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/simnet"
)

// errConnClosed is the internal "this conn is no longer usable" sentinel a
// call sees when its frame was never handed to the kernel (push refused).
// Such calls are safe to retry on a fresh connection because the peer cannot
// have observed them; CallCtx does exactly that, once.
var errConnClosed = errors.New("transport: connection closed")

// callResult is what the reader (or the closer) delivers to a waiting call.
type callResult struct {
	resp *response
	err  error
}

// clientConn is one pooled, multiplexed client socket to a single peer.
// Calls from any number of goroutines encode a request frame, park a result
// channel in the pending map under a fresh request ID, and push the frame
// into the outbound window; a writer goroutine drains the window in bursts
// (micro-batching: one buffered write + flush per burst, however many calls
// landed in it), and a reader goroutine demultiplexes response frames back
// to the pending channels by ID.
type clientConn struct {
	t    *Transport
	pool *pool
	c    net.Conn
	out  *fanout.Window[[]byte]

	mu       sync.Mutex
	pending  map[uint64]chan callResult
	nextID   uint64
	closed   bool
	closeErr error

	inflight int64 // guarded by mu; mirrored into the pool's gauge
	lastUsed int64 // unix nanos of last call completion; atomic via mu
}

func newClientConn(t *Transport, p *pool, c net.Conn) *clientConn {
	cc := &clientConn{
		t:       t,
		pool:    p,
		c:       c,
		out:     fanout.NewWindow[[]byte](),
		pending: make(map[uint64]chan callResult),
	}
	cc.touch()
	go cc.writeLoop()
	go cc.readLoop()
	return cc
}

func (c *clientConn) touch() {
	c.mu.Lock()
	c.lastUsed = time.Now().UnixNano()
	c.mu.Unlock()
}

// idleSince reports the last-use time and current in-flight count for the
// pool reaper.
func (c *clientConn) idleState() (lastUsed time.Time, inflight int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, c.lastUsed), c.inflight
}

// call performs one RPC over this connection. done is the caller's deadline
// channel (per-call timer or ctx); the caller classifies the error.
func (c *clientConn) call(from simnet.Addr, msg simnet.Message) (uint64, chan callResult, error) {
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		if err == nil {
			err = errConnClosed
		}
		return 0, nil, fmt.Errorf("%w: %v", errConnClosed, err)
	}
	c.nextID++
	id := c.nextID
	ch := make(chan callResult, 1)
	c.pending[id] = ch
	c.inflight++
	c.lastUsed = time.Now().UnixNano()
	c.mu.Unlock()
	c.pool.inflight.Add(1)

	frame, err := appendRequestFrame(nil, id, string(from), msg.Type, msg.Size, msg.Payload)
	if err != nil {
		c.finish(id)
		return 0, nil, err
	}
	c.t.met.countCodec(msg.Payload, len(frame))
	if !c.out.Push(frame) {
		c.finish(id)
		c.mu.Lock()
		closeErr := c.closeErr
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %v", errConnClosed, closeErr)
	}
	return id, ch, nil
}

// finish deregisters a call (completed, canceled, or timed out) and drops
// the in-flight accounting. Idempotent per ID: the reader deletes the entry
// when it delivers, so a late finish after delivery is a no-op.
func (c *clientConn) finish(id uint64) {
	c.mu.Lock()
	_, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		c.inflight--
	}
	c.lastUsed = time.Now().UnixNano()
	c.mu.Unlock()
	if ok {
		c.pool.inflight.Add(-1)
	}
}

// take removes and returns the pending channel for id, if still registered.
func (c *clientConn) take(id uint64) (chan callResult, bool) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		c.inflight--
	}
	c.mu.Unlock()
	if ok {
		c.pool.inflight.Add(-1)
	}
	return ch, ok
}

// writeLoop drains the outbound window and writes each burst with a single
// buffered write + flush — the transport's micro-batching. Concurrent calls
// that queue while a flush is in progress coalesce into the next burst.
func (c *clientConn) writeLoop() {
	bw := bufio.NewWriterSize(c.c, 64<<10)
	for {
		burst, ok := c.out.Drain()
		if !ok {
			return
		}
		var bytes int
		for _, f := range burst {
			bytes += len(f)
			if _, err := bw.Write(f); err != nil {
				c.close(fmt.Errorf("transport: write: %w", err))
				return
			}
		}
		c.c.SetWriteDeadline(time.Now().Add(c.t.callTimeout))
		if err := bw.Flush(); err != nil {
			c.close(fmt.Errorf("transport: flush: %w", err))
			return
		}
		c.t.met.observeBatch(len(burst), bytes)
	}
}

// readLoop parses response frames and routes them to waiting calls. Any read
// error retires the connection; calls still pending fail with that error and
// the pool dials fresh on the next use.
func (c *clientConn) readLoop() {
	br := bufio.NewReaderSize(c.c, 64<<10)
	for {
		body, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			c.close(fmt.Errorf("transport: read: %w", err))
			return
		}
		_, resp, err := parseFrame(body)
		if err != nil || resp == nil {
			c.close(fmt.Errorf("transport: protocol error: %v", err))
			return
		}
		if ch, ok := c.take(resp.id); ok {
			ch <- callResult{resp: resp}
		}
		// An unknown ID is a response to a call that timed out or was
		// canceled; drop it.
	}
}

// close retires the connection: fails every pending call, stops both loops,
// and removes it from the pool. Idempotent.
func (c *clientConn) close(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = err
	pend := c.pending
	c.pending = make(map[uint64]chan callResult)
	c.inflight = 0
	c.mu.Unlock()

	c.out.Close()
	c.c.Close()
	for _, ch := range pend {
		ch <- callResult{err: fmt.Errorf("%w: %v", errConnClosed, err)}
	}
	if n := len(pend); n > 0 {
		c.pool.inflight.Add(-int64(n))
	}
	c.pool.remove(c)
}

// serverConn is the accepting side of one multiplexed socket: a reader that
// dispatches each request frame on its own goroutine, and the same
// window-batched writer for responses (concurrent handlers' replies coalesce
// into shared flushes).
type serverConn struct {
	t   *Transport
	l   *listener
	c   net.Conn
	out *fanout.Window[[]byte]
}

func newServerConn(t *Transport, l *listener, c net.Conn) *serverConn {
	sc := &serverConn{t: t, l: l, c: c, out: fanout.NewWindow[[]byte]()}
	go sc.writeLoop()
	go sc.readLoop()
	return sc
}

func (s *serverConn) writeLoop() {
	bw := bufio.NewWriterSize(s.c, 64<<10)
	for {
		burst, ok := s.out.Drain()
		if !ok {
			return
		}
		var bytes int
		for _, f := range burst {
			bytes += len(f)
			if _, err := bw.Write(f); err != nil {
				s.close()
				return
			}
		}
		s.c.SetWriteDeadline(time.Now().Add(s.t.callTimeout))
		if err := bw.Flush(); err != nil {
			s.close()
			return
		}
		s.t.met.observeBatch(len(burst), bytes)
	}
}

func (s *serverConn) readLoop() {
	br := bufio.NewReaderSize(s.c, 64<<10)
	for {
		body, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			s.close()
			return
		}
		req, _, err := parseFrame(body)
		if err != nil || req == nil {
			s.close()
			return
		}
		go s.dispatch(req)
	}
}

// dispatch decodes one request, runs the handler, and queues the response.
func (s *serverConn) dispatch(req *request) {
	payload, err := decodePayload(req.codec, req.payload)
	var reply simnet.Message
	if err == nil {
		h := s.l.currentHandler()
		if h == nil {
			err = fmt.Errorf("transport: no handler registered")
		} else {
			reply, err = h.HandleMessage(simnet.Addr(req.from), simnet.Message{
				Type:    req.msgType,
				Payload: payload,
				Size:    req.size,
			})
		}
	}
	s.t.met.served(req.msgType)
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
		// The payload of a failed call is not sent; the error string is the
		// whole response.
		reply = simnet.Message{}
	}
	frame, err := appendResponseFrame(nil, req.id, reply.Type, reply.Size, errMsg, reply.Payload)
	if err != nil {
		// Response payload failed to encode: report that instead so the
		// caller is not left to time out.
		if frame, err = appendResponseFrame(nil, req.id, "", 0, err.Error(), nil); err != nil {
			s.close()
			return
		}
	} else {
		s.t.met.countCodec(reply.Payload, len(frame))
	}
	s.out.Push(frame) // a refused push means the conn died; the client copes
}

func (s *serverConn) close() {
	s.out.Close()
	s.c.Close()
	s.l.removeConn(s)
}
