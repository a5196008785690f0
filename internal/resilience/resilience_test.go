package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Success},
		{"unreachable", simnet.ErrUnreachable, Transient},
		{"wrapped unreachable", fmt.Errorf("call x: %w", simnet.ErrUnreachable), Transient},
		{"canceled", context.Canceled, Canceled},
		{"deadline", fmt.Errorf("call: %w", context.DeadlineExceeded), Canceled},
		{"application", errors.New("core: no such document"), Permanent},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Classify(c.err); got != c.want {
				t.Fatalf("Classify(%v) = %v, want %v", c.err, got, c.want)
			}
		})
	}
}

func TestBackoffCapBounds(t *testing.T) {
	cases := []struct {
		name    string
		policy  Policy
		attempt int
		want    time.Duration
	}{
		{"zero policy", Policy{}, 1, 0},
		{"first retry", Policy{BaseBackoff: 10 * time.Millisecond}, 1, 10 * time.Millisecond},
		{"doubles", Policy{BaseBackoff: 10 * time.Millisecond}, 3, 40 * time.Millisecond},
		{"capped", Policy{BaseBackoff: 10 * time.Millisecond}, 7, 500 * time.Millisecond},
		{"default cap 50x", Policy{BaseBackoff: time.Millisecond}, 20, 50 * time.Millisecond},
		{"x2 growth below 50x cap", Policy{BaseBackoff: 10 * time.Millisecond}, 6, 320 * time.Millisecond},
		{"attempt zero", Policy{BaseBackoff: 10 * time.Millisecond}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.policy.BackoffCap(c.attempt); got != c.want {
				t.Fatalf("BackoffCap(%d) = %v, want %v", c.attempt, got, c.want)
			}
		})
	}
}

// TestJitterDeterminism: two policies with identically seeded jitter draw
// bit-for-bit identical backoff schedules; full jitter stays within [0, cap).
func TestJitterDeterminism(t *testing.T) {
	mk := func() Policy {
		return Policy{BaseBackoff: 10 * time.Millisecond, Rand: NewJitter(42)}
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 8; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: schedules diverged: %v vs %v", attempt, da, db)
		}
		if cap := a.BackoffCap(attempt); da < 0 || da >= cap {
			t.Fatalf("attempt %d: jittered backoff %v outside [0, %v)", attempt, da, cap)
		}
	}
}

// TestDoRetriesTransient: transient errors are retried up to MaxRetries with
// the jittered schedule handed to the injected sleeper.
func TestDoRetriesTransient(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxRetries:  3,
		BaseBackoff: 10 * time.Millisecond,
		Rand:        func() float64 { return 0.5 },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	v, retries, err := Do(context.Background(), p, func(ctx context.Context) (string, error) {
		calls++
		if calls < 3 {
			return "", fmt.Errorf("drop %d: %w", calls, simnet.ErrUnreachable)
		}
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = (%q, %v), want (ok, nil)", v, err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls = %d, retries = %d, want 3, 2", calls, retries)
	}
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestDoDoesNotRetryPermanent(t *testing.T) {
	p := Policy{MaxRetries: 5}
	calls := 0
	boom := errors.New("application error")
	_, retries, err := Do(context.Background(), p, func(ctx context.Context) (int, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) || calls != 1 || retries != 0 {
		t.Fatalf("permanent error retried: calls=%d retries=%d err=%v", calls, retries, err)
	}
}

func TestDoExhaustsRetries(t *testing.T) {
	p := Policy{MaxRetries: 2, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	_, retries, err := Do(context.Background(), p, func(ctx context.Context) (int, error) {
		calls++
		return 0, simnet.ErrUnreachable
	})
	if !errors.Is(err, simnet.ErrUnreachable) || calls != 3 || retries != 2 {
		t.Fatalf("exhaustion: calls=%d retries=%d err=%v", calls, retries, err)
	}
}

// TestDoCancellationMidRetry: a context canceled between attempts stops the
// loop immediately; the returned error wraps the caller's ctx error, with
// the transient error of the last attempt still inspectable.
func TestDoCancellationMidRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{
		MaxRetries:  10,
		BaseBackoff: time.Millisecond,
		Rand:        func() float64 { return 0.9 }, // nonzero jitter: the sleeper always runs
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up while we are backing off
			return ctx.Err()
		},
	}
	calls := 0
	_, _, err := Do(ctx, p, func(ctx context.Context) (int, error) {
		calls++
		return 0, simnet.ErrUnreachable
	})
	if calls != 1 {
		t.Fatalf("attempts after cancel: calls = %d, want 1", calls)
	}
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want the last transient error", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the caller's ctx error wrapped too", err)
	}
}

// TestDoCallerCanceledNotRetried: an attempt that fails because the caller's
// own context expired is not retried, even though the error wraps a deadline.
func TestDoCallerCanceledNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{MaxRetries: 5}
	calls := 0
	_, _, err := Do(ctx, p, func(ctx context.Context) (int, error) {
		calls++
		return 0, fmt.Errorf("aborted: %w", context.Canceled)
	})
	if calls != 1 {
		t.Fatalf("canceled caller retried: calls = %d", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDoPerCallTimeoutIsTransient: an attempt killed by its per-call deadline
// while the caller's context is still live is classified transient and
// retried.
func TestDoPerCallTimeoutIsTransient(t *testing.T) {
	p := Policy{
		MaxRetries:     1,
		PerCallTimeout: time.Millisecond,
		Sleep:          func(context.Context, time.Duration) error { return nil },
	}
	calls := 0
	v, retries, err := Do(context.Background(), p, func(ctx context.Context) (string, error) {
		calls++
		if calls == 1 {
			<-ctx.Done() // simulate a hung peer outliving the attempt budget
			return "", ctx.Err()
		}
		return "recovered", nil
	})
	if err != nil || v != "recovered" || retries != 1 {
		t.Fatalf("Do = (%q, %d, %v), want (recovered, 1, nil)", v, retries, err)
	}
}
