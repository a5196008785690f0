package vtime

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Epoch is the fixed origin of virtual time. Every Sim starts here, so
// timestamps recorded during a virtual run (telemetry, latency samples) are
// bit-identical across runs with the same seed.
var Epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// Sim is a deterministic discrete-event virtual clock.
//
// Goroutines register with the clock (Run/Attach/GoGroup) and are counted
// as runnable until they enter a virtual wait (Sleep) or deregister. The
// scheduler advances time only at quiescence — when every registered
// goroutine is blocked on a virtual wait — by firing the earliest pending
// event, keyed by (virtual time, sequence) so ties break in creation order.
// With the same seed driving the workload, the sequence of quiescent states
// is the same, so the virtual timeline is the same: latency percentiles
// from a Sim run are exact, not sampled from scheduler jitter.
//
// There is no scheduler goroutine. Whichever goroutine makes the system
// quiescent (the last to block or deregister) runs the advance loop inline;
// a sole runnable sleeper with no earlier pending event takes a fast path
// that bumps the virtual offset without parking at all, which is what makes
// million-query single-threaded sweeps cost ~tens of nanoseconds per
// simulated wait.
//
// Cancellation is part of the event order: before firing a timed event the
// scheduler first wakes, in sequence order, any parked sleeper whose context
// is already done, so cancels triggered by virtual deadlines land at a
// deterministic virtual instant. A goroutine must not wait on an event the
// clock cannot see (a channel, another goroutine, I/O) while registered;
// getting this wrong is loud — the scheduler panics when every registered
// goroutine is blocked and no event is pending.
type Sim struct {
	mu      sync.Mutex
	now     time.Duration // virtual offset from Epoch
	seq     uint64
	events  eventHeap
	workers int // registered goroutines
	blocked int // registered goroutines parked in a virtual wait
	pile        // GoGroup helpers started and not yet run
}

// NewSim returns a virtual clock at Epoch with no registered goroutines.
func NewSim() *Sim { return &Sim{} }

// event is one entry in the virtual timeline. A waiter event (ch non-nil)
// wakes a parked goroutine; a detached event (fn non-nil) runs a callback —
// a context deadline — outside the scheduler lock.
type event struct {
	at  time.Duration
	seq uint64

	ch   chan error      // waiter: buffered 1; nil error = slept fully
	done <-chan struct{} // waiter: context Done channel for the cancel sweep

	fn func(now time.Time) // detached callback

	fired   bool
	removed bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	n := s.now
	s.mu.Unlock()
	return Epoch.Add(n)
}

// Elapsed returns the virtual time advanced since Epoch.
func (s *Sim) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Run registers the calling goroutine for the duration of fn. Top-level
// drivers (experiments, tests) wrap their whole workload in Run so every
// virtual wait inside is scheduled.
func (s *Sim) Run(fn func()) {
	detach := s.Attach()
	defer detach()
	fn()
}

// Attach registers the calling goroutine as runnable and returns its
// detach function (idempotent). Prefer Run; Attach exists for callers whose
// enter/exit points straddle function boundaries (the chaos harness attaches
// around each deployment-touching step).
func (s *Sim) Attach() (detach func()) {
	s.mu.Lock()
	s.workers++
	s.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { s.deregister() }) }
}

// deregister removes one runnable slot and settles the scheduler, since the
// departure may have made the system quiescent.
func (s *Sim) deregister() {
	s.mu.Lock()
	s.workers--
	cb := s.advanceLocked()
	s.mu.Unlock()
	s.settle(cb)
}

// settle drains the advance loop: run a detached callback outside the lock,
// then re-check for quiescence, until no callback is pending.
func (s *Sim) settle(cb func(time.Time)) {
	for cb != nil {
		cb(s.Now())
		s.mu.Lock()
		cb = s.advanceLocked()
		s.mu.Unlock()
	}
}

// advanceLocked fires timeline events while the system is quiescent. Waking
// a parked goroutine ends quiescence, so it fires at most one waiter; a
// detached callback must run outside the lock, so it is returned to the
// caller (who re-enters via settle). Returns nil when some goroutine is
// runnable again or nothing had to fire.
func (s *Sim) advanceLocked() func(time.Time) {
	for s.workers > 0 && s.blocked == s.workers {
		// Cancel sweep: wake parked sleepers whose context is already
		// done, in sequence order, before advancing time any further.
		var canceled []*event
		for _, ev := range s.events {
			if ev.ch == nil || ev.removed || ev.done == nil {
				continue
			}
			select {
			case <-ev.done:
				canceled = append(canceled, ev)
			default:
			}
		}
		if len(canceled) > 0 {
			sort.Slice(canceled, func(i, j int) bool { return canceled[i].seq < canceled[j].seq })
			for _, ev := range canceled {
				ev.removed = true
				ev.fired = true
				s.blocked--
				ev.ch <- context.Canceled
			}
			return nil
		}
		for len(s.events) > 0 && s.events[0].removed {
			heap.Pop(&s.events)
		}
		if len(s.events) == 0 {
			panic(fmt.Sprintf("vtime: deadlock: all %d registered goroutines blocked on virtual waits with no pending events (a registered goroutine waits on a real event, or a goroutine was not registered via Attach/GoGroup)", s.workers))
		}
		ev := heap.Pop(&s.events).(*event)
		if ev.at > s.now {
			s.now = ev.at
		}
		ev.fired = true
		if ev.ch != nil {
			s.blocked--
			ev.ch <- nil
			return nil
		}
		return ev.fn
	}
	return nil
}

// push adds an event to the timeline. Caller holds s.mu.
func (s *Sim) pushLocked(ev *event) {
	s.seq++
	ev.seq = s.seq
	heap.Push(&s.events, ev)
}

// Sleep blocks the calling goroutine for d of virtual time, or until ctx is
// done. The goroutine must be registered (Run/Attach/GoGroup).
func (s *Sim) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	if s.workers <= 0 {
		s.mu.Unlock()
		panic("vtime: Sleep with no registered goroutines (wrap the caller in Sim.Run, or create it with Attach/GoGroup)")
	}
	at := s.now + d
	// Fast path: this goroutine is the only registered one and nothing
	// fires at or before the target instant — advance inline, no parking.
	if s.workers == 1 && s.blocked == 0 {
		for len(s.events) > 0 && s.events[0].removed {
			heap.Pop(&s.events)
		}
		if len(s.events) == 0 || s.events[0].at > at {
			s.now = at
			s.mu.Unlock()
			return nil
		}
	}
	ev := &event{at: at, ch: make(chan error, 1), done: ctx.Done()}
	s.pushLocked(ev)
	s.blocked++
	cb := s.advanceLocked()
	s.mu.Unlock()
	s.settle(cb)
	if err := <-ev.ch; err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	return nil
}

// WithTimeout derives a context whose deadline is d of virtual time from
// now. Expiry is a detached scheduler event, so timeouts land at an exact,
// reproducible virtual instant; Deadline() reports the virtual instant and
// is comparable with Sim.Now(). Parent cancellation propagates.
func (s *Sim) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d < 0 {
		d = 0
	}
	c := &simCtx{Context: parent, s: s, done: make(chan struct{})}
	s.mu.Lock()
	c.deadline = Epoch.Add(s.now + d)
	c.ev = &event{at: s.now + d, fn: func(time.Time) { c.cancel(context.DeadlineExceeded) }}
	s.pushLocked(c.ev)
	s.mu.Unlock()
	if parent.Done() != nil {
		c.stopAfter = context.AfterFunc(parent, func() { c.cancel(parent.Err()) })
	}
	return c, func() { c.cancel(context.Canceled) }
}

// simCtx is a context with a virtual deadline. Value lookups delegate to the
// parent; Done/Err/Deadline are owned here.
type simCtx struct {
	context.Context
	s        *Sim
	deadline time.Time

	mu        sync.Mutex
	done      chan struct{}
	err       error
	ev        *event
	stopAfter func() bool
}

func (c *simCtx) Deadline() (time.Time, bool) {
	if pd, ok := c.Context.Deadline(); ok && pd.Before(c.deadline) {
		return pd, true
	}
	return c.deadline, true
}

func (c *simCtx) Done() <-chan struct{} { return c.done }

func (c *simCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *simCtx) cancel(err error) {
	if err == nil {
		err = context.Canceled
	}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	close(c.done)
	stop := c.stopAfter
	c.mu.Unlock()
	c.s.removeEvent(c.ev)
	if stop != nil {
		stop()
	}
}

// removeEvent marks a detached event dead so the scheduler skips it.
func (s *Sim) removeEvent(ev *event) {
	s.mu.Lock()
	if !ev.fired {
		ev.removed = true
	}
	s.mu.Unlock()
}

// GoGroup runs fn(0) on the calling goroutine and the other items on it and
// on min(workers, n) - 1 new registered goroutines, under Clock.GoGroup's
// contract. The caller keeps its runnable slot while it runs its items, and
// every helper is registered before it starts, so virtual time cannot advance
// past a helper that has not yet joined. A helper that finds the cursor
// drained deregisters and exits. When the caller finds the cursor drained
// and no joined helper is still running, it simply returns, still
// registered. Otherwise it deregisters while waiting, and the last joined
// helper to exit re-registers the caller's slot in the same critical section
// as its own exit, so there is no instant at which the scheduler could
// advance between "group done" and "caller runnable". This is the primitive
// fanout.Map builds on.
func (s *Sim) GoGroup(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	g := &simGroup{group: group{fn: fn, n: int64(n)}}
	k := max(min(workers, n)-1, 0)
	s.mu.Lock()
	s.workers += k
	s.mu.Unlock()
	s.spawn(k, func() { s.help(g) })
	g.drain(0)
	s.mu.Lock()
	g.closed = true
	if g.running == 0 {
		s.mu.Unlock()
		return
	}
	g.done = make(chan struct{})
	s.workers-- // wait unregistered; the last helper hands the slot back
	cb := s.advanceLocked()
	s.mu.Unlock()
	s.settle(cb)
	<-g.done
}

// simGroup is one GoGroup call on a Sim, whose lock is the group lock.
// running counts the joined helpers that have not exited; done is made when
// the caller starts to wait.
type simGroup struct {
	group
	running int
	done    chan struct{}
}

func (s *Sim) help(g *simGroup) {
	s.unstarted.Add(-1)
	s.mu.Lock()
	joined := g.open()
	if joined {
		g.running++
	}
	s.mu.Unlock()
	if !joined {
		s.deregister()
		return
	}
	g.drain(g.next.Add(1))
	s.mu.Lock()
	s.workers--
	g.running--
	var done chan struct{}
	if g.running == 0 && g.closed {
		s.workers++ // hand the slot back to the waiting caller
		done = g.done
	}
	cb := s.advanceLocked()
	s.mu.Unlock()
	if done != nil {
		close(done)
	}
	s.settle(cb)
}
