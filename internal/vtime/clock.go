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
// fan-out pays per helper.
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

	// GoGroup runs fn(0..n-1) and blocks until all return: fn(0) on the
	// calling goroutine, every other index on a new registered goroutine,
	// so a group of n starts n-1. n <= 0 calls nothing. If helpers are still
	// running when fn(0) returns, the caller gives up its runnable slot
	// while it waits, so the wait itself never stalls virtual time.
	GoGroup(n int, fn func(i int))
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

func (wallClock) GoGroup(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	fn(0)
	wg.Wait()
}
