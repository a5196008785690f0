// Package vtime provides the clock abstraction behind every time-dependent
// code path in the SPRITE stack: simulated link latency (internal/simnet),
// retry backoff and per-attempt timeouts (internal/resilience), cache TTL
// expiry (internal/cache), and the fan-out executor's stage timings
// (internal/fanout).
//
// Two implementations exist. Wall delegates to the standard library and is
// the default everywhere, so production paths behave exactly as before this
// package existed. Sim is a deterministic discrete-event scheduler: virtual
// time advances only when every registered goroutine is blocked on a virtual
// wait, pending events fire in (virtual time, sequence) order, and a million
// simulated milliseconds cost whatever the CPU work between them costs —
// this is what lets spritebench sweep 100k-peer rings and millions of
// queries with exact latency percentiles in seconds of wall time (see
// DESIGN.md §9).
//
// The interface is deliberately wider than time.Now/time.Sleep: the
// scheduler can only advance time safely when it knows which goroutines
// count as runnable, so code running under a Clock must create goroutines
// with GoGroup and must not wait on non-virtual events (channel receives,
// WaitGroups) while registered. Under both clocks GoGroup runs its first
// item on the calling goroutine, whose stack has already grown, and its
// other items on whichever of the caller and its helpers takes them off the
// group's cursor first: a fresh goroutine's small stack grows again on the
// way down a send, and that regrowth is the price a fan-out pays per helper.
// The caller waits only for the items, not for a helper that found them all
// taken: one that has run every item itself returns at once.
package vtime

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts the passage of time. Implementations: Wall (real time) and
// *Sim (deterministic virtual time).
type Clock interface {
	// Now returns the current time. For Sim this is a fixed epoch plus the
	// virtual offset, so timestamps are reproducible across runs.
	Now() time.Time

	// Sleep blocks for d or until ctx is done, returning nil on a full
	// sleep and the context's error otherwise. Under Sim the block is a
	// virtual wait: it costs no wall time and other goroutines' virtual
	// waits interleave deterministically with it.
	Sleep(ctx context.Context, d time.Duration) error

	// WithTimeout derives a context that is canceled after d on this
	// clock. Under Sim the deadline is a virtual instant (comparable with
	// Now) and expiry is a deterministic scheduler event.
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)

	// GoGroup runs fn(i) exactly once for every i in [0, n) and returns
	// once every call has returned; n <= 0 calls nothing. fn(0) runs on the
	// calling goroutine. The other items are taken off a cursor the group
	// owns by the caller, once fn(0) returns, and by at most
	// min(workers, n) - 1 helpers GoGroup starts. A helper that finds the
	// cursor drained exits without being waited for, possibly after GoGroup
	// has returned.
	//
	// A caller left waiting for items its helpers still run gives up its
	// runnable slot, so the wait itself never stalls virtual time.
	GoGroup(workers, n int, fn func(i int))
}

// Wall is the real-time clock: every method delegates to the standard
// library and goroutine registration is free.
var Wall Clock = &wallClock{}

// Default returns c, or Wall when c is nil — the idiom every integration
// point uses to make the wall clock the zero-config default.
func Default(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

type wallClock struct{ pile }

func (*wallClock) Now() time.Time { return time.Now() }

func (*wallClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

func (*wallClock) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}

func (c *wallClock) GoGroup(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	g := &wallGroup{group: group{fn: fn, n: int64(n)}}
	c.spawn(max(min(workers, n)-1, 0), func() { c.help(g) })
	g.drain(0)
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
}

// wallGroup is one GoGroup call on the wall clock. wg counts the helpers
// that joined: each adds itself under mu while the group is open, so its Add
// happens before the caller's Wait or not at all.
type wallGroup struct {
	group
	mu sync.Mutex
	wg sync.WaitGroup
}

func (c *wallClock) help(g *wallGroup) {
	c.unstarted.Add(-1)
	g.mu.Lock()
	joined := g.open()
	if joined {
		g.wg.Add(1)
	}
	g.mu.Unlock()
	if joined {
		g.drain(g.next.Add(1))
		g.wg.Done()
	}
}

// group is what one GoGroup call's caller and helpers share: fn and a cursor
// over [0, n). next is the last index taken; item 0 is the caller's. closed
// is set, under the clock's group lock, once the caller has found the cursor
// drained. A helper joins under that lock, and only while the group is open,
// before it takes an index: one that took the last item first could find the
// group closed by then, and the item would run unwaited or not at all.
type group struct {
	fn     func(int)
	n      int64
	next   atomic.Int64
	closed bool
}

// drain runs fn(i), then items off the cursor until it is drained.
func (g *group) drain(i int64) {
	for ; i < g.n; i = g.next.Add(1) {
		g.fn(int(i))
	}
}

// open reports whether a helper may join: the caller has not closed the
// group and items are left. Caller holds the group lock.
func (g *group) open() bool {
	return !g.closed && g.next.Load() < g.n-1
}

// maxUnstartedHelpers is how many of a clock's helpers may be started but not
// yet scheduled before a GoGroup yields. A caller that runs its items faster
// than the scheduler starts its helpers leaves one behind per call, and on a
// busy processor they pile up. Once this many wait, a caller yields its thread
// once (runtime.Gosched) before it starts more, so the waiting helpers can
// run, find the cursor drained and exit; then it starts its own whatever the
// count. The pile stays near this size for one caller on one processor
// (TestGoGroupYieldsToPiledUpHelpers), but concurrent callers can pass it. A
// caller does not run its items alone or join its helpers instead: whether
// the count is reached depends on how the host schedules goroutines, so the
// choice must change neither the virtual timeline (alone, sleeping items
// would run in turn) nor what a call allocates.
const maxUnstartedHelpers = 64

// pile counts a clock's helpers that have been started and have not yet run;
// a helper decrements it first thing.
type pile struct{ unstarted atomic.Int64 }

// spawn starts k goroutines running help, yielding first if
// maxUnstartedHelpers of the clock's helpers are waiting to run.
func (p *pile) spawn(k int, help func()) {
	if p.unstarted.Load() >= maxUnstartedHelpers {
		runtime.Gosched()
	}
	p.unstarted.Add(int64(k))
	for ; k > 0; k-- {
		go help()
	}
}
