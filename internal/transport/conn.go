package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
)

// errConnClosed is the internal "this conn is no longer usable" sentinel a
// call sees when its frame was never handed to the kernel (the connection
// was retired before the write). Such calls are safe to retry on a fresh
// connection because the peer cannot have observed them; CallCtx does
// exactly that, once.
var errConnClosed = errors.New("transport: connection closed")

// callResult is what the reader (or the closer) delivers to a waiting call.
type callResult struct {
	resp frame
	err  error
}

// resultChans holds the channels calls wait for their results on, each
// buffered for the one result it receives. A channel goes back only once
// that result has been received.
var resultChans = sync.Pool{New: func() any { return make(chan callResult, 1) }}

// frameWriter is the write side of one socket, shared by every goroutine
// that sends on it: callers write their own requests, handlers their own
// replies. A writer announces itself in waiting, buffers its frame under mu
// and flushes only if no other writer is waiting by then, so the last
// writer of a burst flushes for all of them (group commit): N concurrent
// frames, one flush, one syscall; a lone frame flushes at once.
type frameWriter struct {
	t       *Transport
	c       net.Conn
	waiting atomic.Int32
	closed  atomic.Bool

	mu     sync.Mutex
	bw     *bufio.Writer
	frames int // buffered since the last flush
	bytes  int
}

func newFrameWriter(t *Transport, c net.Conn) *frameWriter {
	return &frameWriter{t: t, c: c, bw: bufio.NewWriterSize(c, 64<<10)}
}

// write buffers frame and flushes it unless another writer is waiting to
// buffer its own. It returns errConnClosed, without touching the socket,
// once close has been called; any other error is the socket's, and the
// caller retires the connection. A nil error means the frame was buffered:
// a failure of the flush that later carries it retires the connection too.
func (w *frameWriter) write(frame []byte) error {
	w.waiting.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		w.waiting.Add(-1)
		return errConnClosed
	}
	if w.frames == 0 {
		// One deadline per flush, set before the first write of its burst:
		// a frame larger than the buffer goes straight to the socket.
		w.c.SetWriteDeadline(time.Now().Add(w.t.callTimeout))
	}
	_, err := w.bw.Write(frame)
	w.frames++
	w.bytes += len(frame)
	if w.waiting.Add(-1) > 0 && err == nil {
		return nil
	}
	if err == nil {
		err = w.bw.Flush()
	}
	if err != nil {
		w.closed.Store(true)
		return err
	}
	w.t.met.observeBatch(w.frames, w.bytes)
	w.frames, w.bytes = 0, 0
	return nil
}

// clientConn is the one pooled, multiplexed client socket to a peer. A call
// registers a result channel in the pending map under a fresh request ID
// and writes its own request frame; a reader goroutine demultiplexes
// response frames back to the pending channels by ID.
type clientConn struct {
	t    *Transport
	pool *pool
	c    net.Conn
	w    *frameWriter

	mu       sync.Mutex
	pending  map[uint64]chan callResult
	nextID   uint64
	closed   bool
	closeErr error

	inflight int64 // guarded by mu; mirrored into the pool's gauge
	lastUsed int64 // unix nanos of the last call's start or end; guarded by mu
}

func newClientConn(t *Transport, p *pool, c net.Conn) *clientConn {
	cc := &clientConn{
		t:        t,
		pool:     p,
		c:        c,
		w:        newFrameWriter(t, c),
		pending:  make(map[uint64]chan callResult),
		lastUsed: time.Now().UnixNano(),
	}
	go cc.readLoop()
	return cc
}

// idleState reports the last-use time and current in-flight count for the
// pool reaper.
func (c *clientConn) idleState() (lastUsed time.Time, inflight int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, c.lastUsed), c.inflight
}

// call sends one request over this connection and returns the channel its
// result arrives on. The error wraps errConnClosed when the connection was
// retired before the frame was written; a frame that reached the socket and
// then failed is reported through the channel, like a reset mid-call.
func (c *clientConn) call(from simnet.Addr, msg simnet.Message) (uint64, chan callResult, error) {
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %v", errConnClosed, err)
	}
	c.nextID++
	id := c.nextID
	ch := resultChans.Get().(chan callResult)
	c.pending[id] = ch
	c.inflight++
	c.lastUsed = time.Now().UnixNano()
	c.mu.Unlock()
	c.pool.inflight.Add(1)

	e := getEncoder()
	defer putEncoder(e)
	req, err := encodeRequest(e, id, string(from), msg.Type, msg.Payload)
	if err != nil {
		c.take(id)
		return 0, nil, err
	}
	c.t.met.countCodec(msg.Payload, len(req))
	if err := c.w.write(req); errors.Is(err, errConnClosed) {
		c.take(id)
		return 0, nil, err
	} else if err != nil {
		c.close(fmt.Errorf("transport: write: %w", err))
	}
	return id, ch, nil
}

// take deregisters a call (answered, canceled, or timed out), drops the
// in-flight accounting and returns its pending channel, if still
// registered. A second take of the same ID is a no-op.
func (c *clientConn) take(id uint64) (chan callResult, bool) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		c.inflight--
	}
	c.lastUsed = time.Now().UnixNano()
	c.mu.Unlock()
	if ok {
		c.pool.inflight.Add(-1)
	}
	return ch, ok
}

// readLoop parses response frames and routes them to waiting calls. Any read
// error retires the connection; calls still pending fail with that error and
// the pool dials fresh on the next use.
func (c *clientConn) readLoop() {
	br := bufio.NewReaderSize(c.c, 64<<10)
	table := make(names)
	for {
		body, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			c.close(fmt.Errorf("transport: read: %w", err))
			return
		}
		resp, err := parseFrame(body, table)
		if err == nil && resp.kind != frameResponse {
			err = errors.New("request frame on a client connection")
		}
		if err != nil {
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

// close retires the connection: removes it from the pool, refuses further
// writes, closes the socket (which stops the reader) and fails every
// pending call. Idempotent.
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

	c.pool.remove(c)
	c.w.closed.Store(true)
	c.c.Close()
	for _, ch := range pend {
		ch <- callResult{err: fmt.Errorf("%w: %v", errConnClosed, err)}
	}
	if n := len(pend); n > 0 {
		c.pool.inflight.Add(-int64(n))
	}
}

// serverConn is the accepting side of one multiplexed socket: a reader that
// hands each request frame to one of the transport's serve workers, where
// the handler's reply is written through the socket's shared frameWriter
// (concurrent handlers' replies group-commit into shared flushes).
type serverConn struct {
	t *Transport
	l *listener
	c net.Conn
	w *frameWriter
}

func newServerConn(t *Transport, l *listener, c net.Conn) *serverConn {
	sc := &serverConn{t: t, l: l, c: c, w: newFrameWriter(t, c)}
	go sc.readLoop()
	return sc
}

func (s *serverConn) readLoop() {
	br := bufio.NewReaderSize(s.c, 64<<10)
	table := make(names)
	for {
		body, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			s.close()
			return
		}
		req, err := parseFrame(body, table)
		if err != nil || req.kind != frameRequest {
			s.close()
			return
		}
		s.t.handOff(serveJob{s: s, req: req})
	}
}

// dispatch decodes one request, runs the handler, and writes the response.
func (s *serverConn) dispatch(req frame) {
	msg, err := decodeMessage(req.msgType, req.codec, req.payload)
	var reply simnet.Message
	if err == nil {
		h := s.l.currentHandler()
		if h == nil {
			err = fmt.Errorf("transport: no handler registered")
		} else {
			reply, err = h.HandleMessage(simnet.Addr(req.from), msg)
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
	e := getEncoder()
	defer putEncoder(e)
	resp, err := encodeResponse(e, req.id, reply.Type, errMsg, reply.Payload)
	if err != nil {
		// Response payload failed to encode: report that instead so the
		// caller is not left to time out.
		if resp, err = encodeResponse(e, req.id, "", err.Error(), nil); err != nil {
			s.close()
			return
		}
	} else {
		s.t.met.countCodec(reply.Payload, len(resp))
	}
	if s.w.write(resp) != nil {
		s.close() // the client sees the reset and fails the call
	}
}

func (s *serverConn) close() {
	s.w.closed.Store(true)
	s.c.Close()
	s.l.removeConn(s)
}
