// Package resilience is the fault-tolerance layer of the query path: a retry
// policy (exponential backoff with full jitter, per-attempt timeouts) and
// typed classification of transport versus application errors.
//
// The SPRITE paper argues (§7) that successor replication makes the system
// tolerate node dynamism, but replication only helps if the read path knows
// when — and when not — to try somewhere else. Real DHT deployments live or
// die by this discipline: a transient drop deserves a retried call, a dead
// peer deserves a failover to the replica holder, and an application error
// ("no such document") deserves neither. This package encodes those
// decisions once so every layer classifies and retries the same way.
//
// All randomness (jitter) is injected, so retry schedules are reproducible
// in tests; all waiting honors context cancellation, so deadlines set at the
// facade reach every backoff sleep and every attempt.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/vtime"
)

// Class is the typed outcome of classifying an error.
type Class int

const (
	// Success: no error.
	Success Class = iota
	// Transient: a transport-level failure (unreachable peer, dropped or
	// timed-out call) that a retry or failover may recover from.
	Transient
	// Canceled: the caller's context was canceled or its deadline expired;
	// retrying cannot help and the error must propagate unchanged.
	Canceled
	// Permanent: an application-level error; retrying would repeat it.
	Permanent
)

// String implements fmt.Stringer for logs and trace annotations.
func (c Class) String() string {
	switch c {
	case Success:
		return "success"
	case Transient:
		return "transient"
	case Canceled:
		return "canceled"
	case Permanent:
		return "permanent"
	}
	return "unknown"
}

// Classify types an error for retry decisions. Context errors dominate:
// an attempt that failed because the caller gave up is Canceled even if the
// failure surfaced as a wrapped transport error.
func Classify(err error) Class {
	switch {
	case err == nil:
		return Success
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Canceled
	case errors.Is(err, simnet.ErrUnreachable):
		return Transient
	default:
		return Permanent
	}
}

// Policy is one retry discipline. The zero value performs a single attempt
// with no timeout — exactly the pre-resilience behavior — so a disabled
// policy is representable without a separate code path.
type Policy struct {
	// MaxRetries is the number of re-attempts after the first try (0 = one
	// attempt total).
	MaxRetries int
	// BaseBackoff is the cap of the first retry's jittered sleep (full
	// jitter: the sleep is uniform in [0, cap)). The cap doubles with each
	// further retry, up to 50× BaseBackoff. Zero retries immediately.
	BaseBackoff time.Duration
	// PerCallTimeout bounds each individual attempt; the attempt's context
	// is the caller's with this deadline layered on. Zero applies none.
	PerCallTimeout time.Duration
	// Rand supplies jitter draws in [0, 1). Nil uses a process-wide seeded
	// source; inject one (see NewJitter) for deterministic schedules.
	Rand func() float64
	// Sleep waits between attempts, honoring ctx. Nil uses the Clock. Tests
	// inject a recorder to assert the schedule without real waiting.
	Sleep func(ctx context.Context, d time.Duration) error
	// Clock supplies backoff sleeps (when Sleep is nil) and per-attempt
	// deadlines. Nil uses the wall clock; virtual-time experiments inject a
	// *vtime.Sim so backoff and timeouts are deterministic scheduler events.
	Clock vtime.Clock
}

// NewJitter returns a concurrency-safe deterministic jitter source for
// Policy.Rand, seeded with seed.
func NewJitter(seed int64) func() float64 {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64()
	}
}

var defaultJitter = NewJitter(1)

// BackoffCap returns the un-jittered backoff cap before retry attempt
// (attempt 1 is the first retry): min(50·BaseBackoff, BaseBackoff·2^(attempt-1)).
func (p Policy) BackoffCap(attempt int) time.Duration {
	if p.BaseBackoff <= 0 || attempt < 1 {
		return 0
	}
	max := 50 * p.BaseBackoff
	d := p.BaseBackoff
	for i := 1; i < attempt; i++ {
		if d *= 2; d >= max {
			return max
		}
	}
	return d
}

// backoff returns the jittered sleep before retry attempt: uniform in
// [0, BackoffCap(attempt)) — "full jitter", which desynchronizes retry storms
// better than equal or decorrelated jitter at the same mean load.
func (p Policy) backoff(attempt int) time.Duration {
	cap := p.BackoffCap(attempt)
	if cap <= 0 {
		return 0
	}
	r := p.Rand
	if r == nil {
		r = defaultJitter
	}
	return time.Duration(r() * float64(cap))
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	return vtime.Default(p.Clock).Sleep(ctx, d)
}

// attemptCtx layers the per-attempt timeout onto the caller's context.
func (p Policy) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.PerCallTimeout <= 0 {
		return ctx, func() {}
	}
	return vtime.Default(p.Clock).WithTimeout(ctx, p.PerCallTimeout)
}

// Do runs op under the policy: up to 1+MaxRetries attempts, each with the
// per-attempt timeout, jittered exponential backoff between attempts. Only
// Transient errors are retried; Canceled and Permanent errors return
// immediately. It returns op's value, the number of retries actually
// performed (0 when the first attempt settled it), and the final error.
func Do[T any](ctx context.Context, p Policy, op func(ctx context.Context) (T, error)) (T, int, error) {
	var (
		val T
		err error
	)
	for attempt := 0; ; attempt++ {
		actx, cancel := p.attemptCtx(ctx)
		val, err = op(actx)
		cancel()
		class := Classify(err)
		// An attempt killed by its own per-call deadline — not the caller's —
		// is a slow peer, not a canceled caller: retryable.
		if class == Canceled && ctx.Err() == nil {
			class = Transient
		}
		if class != Transient || attempt >= p.MaxRetries {
			return val, attempt, err
		}
		// Aborting mid-backoff is the caller's doing: surface its ctx error
		// (so upper layers classify Canceled) while keeping the last attempt's
		// failure inspectable.
		if serr := p.sleep(ctx, p.backoff(attempt+1)); serr != nil {
			return val, attempt, fmt.Errorf("resilience: retry aborted: %w (last attempt: %w)", serr, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return val, attempt, fmt.Errorf("resilience: retry aborted: %w (last attempt: %w)", cerr, err)
		}
	}
}
