package simnet

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

func echoHandler(t *testing.T) Handler {
	return HandlerFunc(func(from Addr, msg Message) (Message, error) {
		return Message{Type: msg.Type + ".reply", Payload: msg.Payload, Size: msg.Size}, nil
	})
}

func TestCallRoundTrip(t *testing.T) {
	n := New(1)
	n.Register("b", echoHandler(t))
	reply, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Payload: 42, Size: 8})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Type != "ping.reply" || reply.Payload.(int) != 42 {
		t.Fatalf("unexpected reply %+v", reply)
	}
	s := n.Stats()
	if s.Calls != 1 || s.Bytes != 16 {
		t.Fatalf("stats = %+v, want 1 call / 16 bytes", s)
	}
	if s.CallsByType["ping"] != 1 {
		t.Fatalf("per-type accounting missing: %+v", s.CallsByType)
	}
}

func TestCallUnregistered(t *testing.T) {
	n := New(1)
	_, err := n.CallCtx(context.Background(), "a", "ghost", Message{Type: "ping"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if s := n.Stats(); s.Failed != 1 {
		t.Fatalf("failed counter = %d, want 1", s.Failed)
	}
}

func TestFailRecover(t *testing.T) {
	n := New(1)
	n.Register("b", echoHandler(t))
	n.Fail("b")
	if n.Alive("b") {
		t.Fatal("failed peer reported alive")
	}
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to failed peer: err = %v", err)
	}
	n.Recover("b")
	if !n.Alive("b") {
		t.Fatal("recovered peer reported dead")
	}
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"}); err != nil {
		t.Fatalf("call after recover: %v", err)
	}
}

func TestFailUnknownPeerIsNoop(t *testing.T) {
	n := New(1)
	n.Fail("nobody")
	if s := n.Stats(); s.PeersFailed != 0 {
		t.Fatalf("failing an unknown peer should not track it: %+v", s)
	}
}

func TestUnregister(t *testing.T) {
	n := New(1)
	n.Register("b", echoHandler(t))
	n.Unregister("b")
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to unregistered peer: err = %v", err)
	}
	if got := n.Peers(); len(got) != 0 {
		t.Fatalf("Peers() = %v after unregister", got)
	}
}

func TestLocalCallsBypassAccounting(t *testing.T) {
	n := New(1)
	n.Register("a", echoHandler(t))
	if _, err := n.CallCtx(context.Background(), "a", "a", Message{Type: "self", Size: 100}); err != nil {
		t.Fatalf("self call: %v", err)
	}
	s := n.Stats()
	if s.Calls != 0 || s.Bytes != 0 {
		t.Fatalf("self call was metered: %+v", s)
	}
	if s.LocalBypass != 1 {
		t.Fatalf("LocalBypass = %d, want 1", s.LocalBypass)
	}
}

func TestSelfCallToFailedSelf(t *testing.T) {
	n := New(1)
	n.Register("a", echoHandler(t))
	n.Fail("a")
	if _, err := n.CallCtx(context.Background(), "a", "a", Message{Type: "self"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("self call to failed self: err = %v", err)
	}
}

func TestLatencyAccounting(t *testing.T) {
	n := New(7, WithLatency(UniformLatency(time.Millisecond, 2*time.Millisecond)))
	n.Register("b", echoHandler(t))
	for i := 0; i < 10; i++ {
		if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	s := n.Stats()
	if s.SimLatency < 20*time.Millisecond || s.SimLatency > 40*time.Millisecond {
		t.Fatalf("SimLatency = %v, want within [20ms, 40ms] for 10 round trips", s.SimLatency)
	}
}

func TestLatencyDeterministic(t *testing.T) {
	run := func() time.Duration {
		n := New(99, WithLatency(UniformLatency(0, time.Second)))
		n.Register("b", echoHandler(t))
		for i := 0; i < 50; i++ {
			n.CallCtx(context.Background(), "a", "b", Message{Type: "p"})
		}
		return n.Stats().SimLatency
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("latency not deterministic: %v vs %v", a, b)
	}
}

func TestUniformLatencySwappedBounds(t *testing.T) {
	n := New(1, WithLatency(UniformLatency(time.Second, 0)))
	n.Register("b", echoHandler(t))
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "p"}); err != nil {
		t.Fatal(err)
	}
	if n.Stats().SimLatency > 2*time.Second {
		t.Fatal("swapped bounds produced out-of-range latency")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	wantErr := errors.New("handler exploded")
	n := New(1)
	n.Register("b", HandlerFunc(func(Addr, Message) (Message, error) {
		return Message{}, wantErr
	}))
	_, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "boom"})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want handler error", err)
	}
	// The request is still metered even when the handler errors.
	if s := n.Stats(); s.Calls != 1 {
		t.Fatalf("errored call not metered: %+v", s)
	}
}

func TestResetStats(t *testing.T) {
	n := New(1)
	n.Register("b", echoHandler(t))
	n.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 4})
	n.ResetStats()
	s := n.Stats()
	if s.Calls != 0 || s.Bytes != 0 || len(s.CallsByType) != 0 {
		t.Fatalf("ResetStats left residue: %+v", s)
	}
	if s.PeersAlive != 1 {
		t.Fatalf("ResetStats dropped peers: %+v", s)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	n := New(1)
	n.Register("b", echoHandler(t))
	n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"})
	s := n.Stats()
	s.CallsByType["ping"] = 999
	if n.Stats().CallsByType["ping"] != 1 {
		t.Fatal("Stats returned a live map, not a copy")
	}
}

func TestPeersSorted(t *testing.T) {
	n := New(1)
	for _, a := range []Addr{"c", "a", "b"} {
		n.Register(a, echoHandler(t))
	}
	got := n.Peers()
	want := []Addr{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Peers() = %v, want %v", got, want)
		}
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := New(1)
	n.Register("b", echoHandler(t))
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := n.Stats(); s.Calls != workers*per {
		t.Fatalf("Calls = %d, want %d", s.Calls, workers*per)
	}
}

// TestDeterminismIndependentOfGlobalRand is the regression test for the
// per-Network rand source: two same-seed networks must draw bit-for-bit
// identical latency sequences even when other code hammers the global
// math/rand source in between — which is exactly what breaks if any call
// path slips back to the package-level functions.
func TestDeterminismIndependentOfGlobalRand(t *testing.T) {
	run := func(pollute bool) []time.Duration {
		n := New(42, WithLatency(UniformLatency(time.Millisecond, 10*time.Millisecond)))
		n.Register("b", echoHandler(t))
		var seq []time.Duration
		prev := time.Duration(0)
		for i := 0; i < 40; i++ {
			if pollute {
				rand.Int63() // global source; must not influence the network
			}
			if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "p"}); err != nil {
				t.Fatal(err)
			}
			cur := n.Stats().SimLatency
			seq = append(seq, cur-prev)
			prev = cur
		}
		return seq
	}
	clean, dirty := run(false), run(true)
	for i := range clean {
		if clean[i] != dirty[i] {
			t.Fatalf("call %d: latency %v with quiet global rand, %v with polluted global rand", i, clean[i], dirty[i])
		}
	}
}

// TestTelemetryMirrorsAccounting checks the instrumented Call paths: success,
// unreachable destination, local bypass, and handler errors must all land in
// the registry with per-type granularity.
func TestTelemetryMirrorsAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := New(3, WithLatency(UniformLatency(time.Millisecond, 2*time.Millisecond)), WithTelemetry(reg))
	n.Register("b", echoHandler(t))
	n.Register("c", HandlerFunc(func(Addr, Message) (Message, error) {
		return Message{}, errors.New("boom")
	}))
	for i := 0; i < 4; i++ {
		if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 10}); err != nil {
			t.Fatal(err)
		}
	}
	n.CallCtx(context.Background(), "a", "gone", Message{Type: "ping", Size: 10}) // unreachable
	n.CallCtx(context.Background(), "b", "b", Message{Type: "ping", Size: 10})    // local bypass
	n.CallCtx(context.Background(), "a", "c", Message{Type: "ping", Size: 10})    // handler error

	if got := reg.Counter("simnet.calls.ping").Value(); got != 6 {
		t.Fatalf("simnet.calls.ping = %d, want 6", got)
	}
	if got := reg.Counter("simnet.unreachable").Value(); got != 1 {
		t.Fatalf("simnet.unreachable = %d, want 1", got)
	}
	if got := reg.Counter("simnet.local_bypass").Value(); got != 1 {
		t.Fatalf("simnet.local_bypass = %d, want 1", got)
	}
	if got := reg.Counter("simnet.handler_errors").Value(); got != 1 {
		t.Fatalf("simnet.handler_errors = %d, want 1", got)
	}
	if got := reg.Histogram("simnet.latency_us").Count(); got != 5 {
		t.Fatalf("simnet.latency_us count = %d, want 5 (success + handler-error calls)", got)
	}
	if bytes := reg.Counter("simnet.bytes.ping").Value(); bytes < 60 {
		t.Fatalf("simnet.bytes.ping = %d, want >= 60", bytes)
	}
}

func TestSleepingLatencyWallClock(t *testing.T) {
	const d = 10 * time.Millisecond
	n := New(1, WithLatency(UniformLatency(d, d)))
	n.SetSleepLatency(true)
	n.Register("b", echoHandler(t))
	start := time.Now()
	if _, err := n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 2*d {
		t.Fatalf("sleeping-latency call took %v, want >= %v (round trip)", elapsed, 2*d)
	}
	if s := n.Stats(); s.SimLatency != 2*d {
		t.Fatalf("SimLatency = %v, want %v (accounting must not change)", s.SimLatency, 2*d)
	}
}

func TestSleepingLatencyCancellation(t *testing.T) {
	n := New(1, WithLatency(UniformLatency(time.Second, time.Second)))
	n.SetSleepLatency(true)
	n.Register("b", echoHandler(t))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := n.CallCtx(ctx, "a", "b", Message{Type: "ping"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not interrupt the sleep")
	}
	if s := n.Stats(); s.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired)
	}
}

func TestSetSleepLatencyRuntimeToggle(t *testing.T) {
	const d = 20 * time.Millisecond
	n := New(1, WithLatency(UniformLatency(d, d)))
	n.Register("b", echoHandler(t))
	start := time.Now()
	n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"})
	if time.Since(start) >= 2*d {
		t.Fatal("latency slept while sleep mode off")
	}
	n.SetSleepLatency(true)
	start = time.Now()
	n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"})
	if time.Since(start) < 2*d {
		t.Fatal("latency not slept after SetSleepLatency(true)")
	}
	n.SetSleepLatency(false)
	start = time.Now()
	n.CallCtx(context.Background(), "a", "b", Message{Type: "ping"})
	if time.Since(start) >= 2*d {
		t.Fatal("latency slept after SetSleepLatency(false)")
	}
}

func TestDropCallsAfterSkipsThenDrops(t *testing.T) {
	net := New(1)
	net.Register("a", echoHandler(t))
	net.Register("b", echoHandler(t))
	net.DropCallsAfter("b", 2, 3)

	var got []bool
	for i := 0; i < 7; i++ {
		_, err := net.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 1})
		got = append(got, err == nil)
	}
	want := []bool{true, true, false, false, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("skip-then-drop pattern = %v, want %v", got, want)
	}
	if net.PendingDrops() != 0 {
		t.Fatalf("PendingDrops = %d after schedule exhausted", net.PendingDrops())
	}
	s := net.Stats()
	if s.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", s.Dropped)
	}
}

func TestDropCallsAfterClear(t *testing.T) {
	net := New(1)
	net.Register("a", echoHandler(t))
	net.Register("b", echoHandler(t))
	net.DropCallsAfter("b", 1, 5)
	if net.PendingDrops() != 5 {
		t.Fatalf("PendingDrops = %d, want 5", net.PendingDrops())
	}
	net.DropCallsAfter("b", 0, 0) // count <= 0 clears
	if net.PendingDrops() != 0 {
		t.Fatalf("PendingDrops = %d after clear", net.PendingDrops())
	}
	if _, err := net.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 1}); err != nil {
		t.Fatalf("call after clear failed: %v", err)
	}

	net.DropCalls("b", 2)
	net.ClearDrops()
	if _, err := net.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 1}); err != nil {
		t.Fatalf("call after ClearDrops failed: %v", err)
	}
}
