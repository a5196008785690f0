package simnet

import (
	"context"
	"errors"
	"testing"
	"time"
)

func echoNet(opts ...Option) *Network {
	n := New(7, opts...)
	for _, a := range []Addr{"a", "b"} {
		n.Register(a, HandlerFunc(func(from Addr, msg Message) (Message, error) {
			return Message{Type: msg.Type, Size: 1}, nil
		}))
	}
	return n
}

// TestCallCtxExpiredContext: a done context fails immediately, wrapping the
// context error and never ErrUnreachable (so retry layers do not retry it).
func TestCallCtxExpiredContext(t *testing.T) {
	n := echoNet()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := n.CallCtx(ctx, "a", "b", Message{Type: "x", Size: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatal("context failure must not look like an unreachable peer")
	}
	if s := n.Stats(); s.Expired != 1 || s.Calls != 0 {
		t.Fatalf("Expired = %d, Calls = %d; want 1, 0", s.Expired, s.Calls)
	}
}

// TestCallCtxDeadlineVsSimulatedLatency: with a latency model, a call whose
// simulated round trip overruns the context deadline fails with
// DeadlineExceeded — latency is accounted, not slept, so the transport must
// enforce the deadline itself.
func TestCallCtxDeadlineVsSimulatedLatency(t *testing.T) {
	n := echoNet(WithLatency(UniformLatency(time.Hour, time.Hour)))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := n.CallCtx(ctx, "a", "b", Message{Type: "x", Size: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if s := n.Stats(); s.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired)
	}
	// A generous deadline lets the same call through.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 3*time.Hour)
	defer cancel2()
	if _, err := n.CallCtx(ctx2, "a", "b", Message{Type: "x", Size: 1}); err != nil {
		t.Fatalf("call within deadline failed: %v", err)
	}
}

// TestDropCalls: exactly the scheduled number of calls fail with
// ErrUnreachable while the peer stays Alive; the next call succeeds.
func TestDropCalls(t *testing.T) {
	n := echoNet()
	n.DropCalls("b", 2)
	for i := 0; i < 2; i++ {
		if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "x", Size: 1}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("drop %d: err = %v, want ErrUnreachable", i, err)
		}
		if !n.Alive("b") {
			t.Fatal("dropped peer must stay Alive")
		}
	}
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "x", Size: 1}); err != nil {
		t.Fatalf("call after drop schedule drained: %v", err)
	}
	if s := n.Stats(); s.Dropped != 2 || s.Failed != 0 {
		t.Fatalf("Dropped = %d, Failed = %d; want 2, 0", s.Dropped, s.Failed)
	}
	// Clearing a schedule stops the drops.
	n.DropCalls("b", 5)
	n.DropCalls("b", 0)
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "x", Size: 1}); err != nil {
		t.Fatalf("call after schedule cleared: %v", err)
	}
}

// TestPacketLossDeterministicAndIndependent: loss draws are reproducible
// across same-seed networks, and enabling loss does not perturb the latency
// sequence (separate rngs).
func TestPacketLossDeterministicAndIndependent(t *testing.T) {
	outcomes := func() []bool {
		n := echoNet()
		n.SetPacketLoss(0.5)
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "x", Size: 1})
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: loss outcome diverged across same-seed runs", i)
		}
		if !a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("p=0.5 over %d calls produced %d drops; rng not wired?", len(a), drops)
	}

	lat := func(p float64) time.Duration {
		n := echoNet(WithLatency(UniformLatency(time.Millisecond, time.Second)))
		n.SetPacketLoss(p)
		for i := 0; i < 16; i++ {
			n.CallCtx(context.Background(), "a", "b", Message{Type: "x", Size: 1})
		}
		return n.Stats().SimLatency
	}
	if l0, l1 := lat(0), lat(0.5); l0 != l1 {
		t.Fatalf("latency sequence changed when loss enabled: %v vs %v", l0, l1)
	}
}

// TestSetPacketLoss: the runtime knob switches loss on and off.
func TestSetPacketLoss(t *testing.T) {
	n := echoNet()
	n.SetPacketLoss(1.0)
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "x", Size: 1}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("p=1 call survived: %v", err)
	}
	n.SetPacketLoss(0)
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "x", Size: 1}); err != nil {
		t.Fatalf("p=0 call failed: %v", err)
	}
}
