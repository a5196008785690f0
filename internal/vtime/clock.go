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
// item on the calling goroutine, whose stack has already grown, and starts
// a goroutine only for each other item: a fresh goroutine's small stack
// grows again on the way down a send, and that regrowth is the price a
// fan-out pays per helper. A group given a claim waits only for the helpers
// that claimed work: a caller that has done all of it itself returns
// without waiting for a helper to be scheduled, and a helper that starts
// after that runs nothing.
package vtime

import (
	"context"
	"sync"
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

	// GoGroup runs fn(0) on the calling goroutine and starts n-1 helpers for
	// fn(1..n-1), then waits for every helper that has claimed its part. n <= 0
	// calls nothing.
	//
	// Without claim, each helper has claimed from the start: GoGroup returns
	// once every fn(i) has returned. With claim, every helper calls claim() as
	// it starts, and runs fn(i) only if claim() returns true and fn(0) is
	// still running; the caller, once fn(0) has returned, waits only for the
	// helpers that did. A helper that starts later returns at once, possibly
	// after GoGroup has. So a claim suits workers that pull items from a
	// shared cursor, where fn(0) returns only once the cursor is drained:
	// claim reports whether items are left.
	//
	// A caller still waiting when fn(0) returns gives up its runnable slot, so
	// the wait itself never stalls virtual time.
	GoGroup(n int, fn func(i int), claim ...func() bool)
}

// Wall is the real-time clock: every method delegates to the standard
// library and goroutine registration is free.
var Wall Clock = wallClock{}

// Default returns c, or Wall when c is nil — the idiom every integration
// point uses to make the wall clock the zero-config default.
func Default(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
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

func (wallClock) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}

func (wallClock) GoGroup(n int, fn func(i int), claim ...func() bool) {
	if n <= 0 {
		return
	}
	g := &wallGroup{}
	if len(claim) == 0 {
		g.wg.Add(n - 1)
	} else {
		g.claim = claim[0]
	}
	for i := 1; i < n; i++ {
		go g.help(fn, i)
	}
	fn(0)
	if g.claim != nil {
		g.mu.Lock()
		g.closed = true
		g.mu.Unlock()
	}
	g.wg.Wait()
}

// wallGroup is one GoGroup call on the wall clock. wg counts the helpers
// the caller waits for: all n-1 without a claim; with one, each helper that
// claimed before the caller closed the group. Such a helper adds itself
// under mu, so its Add happens before the caller's Wait or not at all.
type wallGroup struct {
	claim  func() bool
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

func (g *wallGroup) help(fn func(int), i int) {
	if g.claim != nil {
		if !g.claim() {
			return
		}
		g.mu.Lock()
		open := !g.closed
		if open {
			g.wg.Add(1)
		}
		g.mu.Unlock()
		if !open {
			return
		}
	}
	defer g.wg.Done()
	fn(i)
}
