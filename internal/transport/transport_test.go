package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/nettransport"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

func echo() simnet.Handler {
	return simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: msg.Type + ".ok", Payload: msg.Payload, Size: msg.Size}, nil
	})
}

func freeAddrs(t *testing.T, n int) []simnet.Addr {
	t.Helper()
	addrs, err := nettransport.FreeAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func TestCallRoundTrip(t *testing.T) {
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if err := tr.LastError(); err != nil {
		t.Fatalf("Register: %v", err)
	}
	reply, err := tr.Call("client", addr, simnet.Message{Type: "ping", Payload: "hello", Size: 5})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Type != "ping.ok" || reply.Payload.(string) != "hello" {
		t.Fatalf("reply = %+v", reply)
	}
	if got := tr.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d, want 1 (pooled, not dial-per-call)", got)
	}
}

func TestPoolReusesOneConnAcrossSequentialCalls(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	for i := 0; i < 50; i++ {
		if _, err := tr.Call("client", addr, simnet.Message{Type: "ping", Size: 1}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if dials := reg.Counter("tcp.dials").Value(); dials != 1 {
		t.Fatalf("tcp.dials = %d after 50 sequential calls, want 1", dials)
	}
	if got := tr.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d, want 1", got)
	}
}

// TestConcurrentCallsMultiplexOnOneSocket is the mux guarantee: many calls
// in flight at once, all answered, over a single pooled connection.
func TestConcurrentCallsMultiplexOnOneSocket(t *testing.T) {
	const callers = 32
	arrived := make(chan struct{}, callers)
	release := make(chan struct{})
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		arrived <- struct{}{}
		<-release
		return simnet.Message{Type: "ok", Payload: msg.Payload}, nil
	}))

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := tr.Call("client", addr, simnet.Message{Type: "hold", Payload: fmt.Sprintf("v%d", i)})
			if err != nil {
				errs <- err
				return
			}
			if reply.Payload.(string) != fmt.Sprintf("v%d", i) {
				errs <- fmt.Errorf("call %d got %v (response demuxed to wrong caller)", i, reply.Payload)
			}
		}(i)
	}
	// Wait until every request is simultaneously in a handler, so all 32
	// are provably in flight together, then check the socket count.
	for i := 0; i < callers; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d calls arrived", i, callers)
		}
	}
	if got := tr.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d with %d calls in flight, want 1", got, callers)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReconnectAfterPeerRestart kills a peer (listener and its accepted
// connections), brings it back at the same address, and verifies the pool
// recovers transparently.
func TestReconnectAfterPeerRestart(t *testing.T) {
	server := New()
	defer server.Close()
	client := New(WithDeadPeerTTL(50 * time.Millisecond))
	defer client.Close()
	addr := freeAddrs(t, 1)[0]
	server.Register(addr, echo())
	if _, err := client.Call("client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatalf("pre-restart call: %v", err)
	}
	if got := client.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d before restart", got)
	}

	server.Unregister(addr)
	// Rebind can race the kernel releasing the port; retry briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		server.Register(addr, echo())
		if server.LastError() == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, server.LastError())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The pooled connection is stale (or already retired by the reader's
	// EOF). The call path must dial fresh — possibly after the dead-peer TTL
	// from a lost race — and succeed without any caller-visible reset.
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, err := client.Call("client", addr, simnet.Message{Type: "ping"})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart call never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := client.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d after recovery, want 1", got)
	}
}

// TestCtxCancellationLeavesPoolHealthy cancels one slow call and verifies
// (a) the error wraps ctx.Err, not ErrUnreachable, and (b) the pooled
// connection survives and still serves later calls.
func TestCtxCancellationLeavesPoolHealthy(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		if msg.Type == "slow" {
			<-block
		}
		return simnet.Message{Type: "ok"}, nil
	}))
	if _, err := tr.Call("client", addr, simnet.Message{Type: "fast"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := tr.CallCtx(ctx, "client", addr, simnet.Message{Type: "slow"})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("caller cancellation misreported as unreachable: %v", err)
	}

	// The same connection must still work: the canceled call only
	// deregistered its pending entry, it did not poison the socket.
	if _, err := tr.Call("client", addr, simnet.Message{Type: "fast"}); err != nil {
		t.Fatalf("call after cancellation: %v", err)
	}
	if got := tr.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d after cancellation, want 1", got)
	}
}

func TestPreCanceledCtxFailsFast(t *testing.T) {
	tr := New()
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tr.CallCtx(ctx, "client", "127.0.0.1:1", simnet.Message{Type: "ping"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("pre-canceled ctx misreported as unreachable: %v", err)
	}
}

func TestCallUnreachableAndNegativeCache(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithDialTimeout(200*time.Millisecond), WithTelemetry(reg))
	defer tr.Close()
	_, err := tr.Call("client", "127.0.0.1:1", simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if tr.Alive("127.0.0.1:1") {
		t.Fatal("dead peer reported alive (negative cache miss)")
	}
	// Second call hits the negative cache, not the network.
	_, err = tr.Call("client", "127.0.0.1:1", simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("cached err = %v, want ErrUnreachable", err)
	}
	if got := reg.Counter("tcp.errors.dead").Value(); got == 0 {
		t.Fatal("negative cache not consulted on repeat call")
	}
}

func TestCallTimeoutOnWedgedPeerWrapsUnreachable(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	tr := New(WithCallTimeout(150 * time.Millisecond))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		<-block
		return simnet.Message{}, nil
	}))
	start := time.Now()
	_, err := tr.Call("client", addr, simnet.Message{Type: "wedge"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~150ms", elapsed)
	}
	// The wedged socket was retired.
	if got := tr.OpenConns(); got != 0 {
		t.Fatalf("OpenConns = %d after call timeout, want 0 (wedged conn retired)", got)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, errors.New("kaboom")
	}))
	_, err := tr.Call("client", addr, simnet.Message{Type: "ping"})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want remote kaboom", err)
	}
	if errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("handler error misreported as unreachable: %v", err)
	}
}

func TestUnregisterStopsServing(t *testing.T) {
	tr := New(WithDialTimeout(200*time.Millisecond), WithDeadPeerTTL(10*time.Millisecond))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if _, err := tr.Call("client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	tr.Unregister(addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := tr.Call("client", addr, simnet.Message{Type: "ping"})
		if errors.Is(err, simnet.ErrUnreachable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("call after Unregister: err = %v, want ErrUnreachable", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAliveLocalRemoteAndProbeWarmsPool(t *testing.T) {
	server := New()
	defer server.Close()
	client := New(WithDialTimeout(200 * time.Millisecond))
	defer client.Close()
	addr := freeAddrs(t, 1)[0]
	server.Register(addr, echo())
	if !server.Alive(addr) {
		t.Fatal("local listener not alive")
	}
	if !client.Alive(addr) {
		t.Fatal("remote peer not alive")
	}
	// The successful probe's connection stays pooled for the next call.
	if got := client.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d after Alive probe, want 1 (probe warms pool)", got)
	}
	if !client.Alive(addr) {
		t.Fatal("second Alive (pooled fast path) returned false")
	}
}

func TestIdleReaperClosesQuietConns(t *testing.T) {
	tr := New(WithIdleTimeout(50 * time.Millisecond))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if _, err := tr.Call("client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.OpenConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle conn never reaped; OpenConns = %d", tr.OpenConns())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A new call after reaping dials fresh and succeeds.
	if _, err := tr.Call("client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatalf("call after reap: %v", err)
	}
}

func TestRegisterAfterCloseFails(t *testing.T) {
	tr := New()
	tr.Close()
	tr.Register("127.0.0.1:0", echo())
	if tr.LastError() == nil {
		t.Fatal("Register after Close did not record an error")
	}
	if _, err := tr.Call("a", "127.0.0.1:1", simnet.Message{Type: "ping"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("Call after Close: err = %v, want ErrUnreachable", err)
	}
}

func TestCloseIsIdempotentAndFailsInflight(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	server := New()
	defer server.Close()
	client := New()
	addr := freeAddrs(t, 1)[0]
	server.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		<-block
		return simnet.Message{}, nil
	}))
	done := make(chan error, 1)
	go func() {
		_, err := client.Call("client", addr, simnet.Message{Type: "slow"})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	client.Close()
	client.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call survived transport Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung through Close")
	}
}

// TestRaceSoak hammers one transport with hundreds of concurrent calls
// across several peers while the race detector watches. Payloads use both
// codec paths: strings travel as gob, registered protocol payloads as
// binary.
func TestRaceSoak(t *testing.T) {
	const peers, callers, callsPerCaller = 3, 24, 25
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addrs := freeAddrs(t, peers)
	for _, a := range addrs {
		tr.Register(a, echo())
	}
	if err := tr.LastError(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < callsPerCaller; i++ {
				to := addrs[(c+i)%peers]
				want := fmt.Sprintf("c%d-i%d", c, i)
				reply, err := tr.Call("client", to, simnet.Message{Type: "soak", Payload: want, Size: len(want)})
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", c, i, err)
					return
				}
				if reply.Payload.(string) != want {
					errs <- fmt.Errorf("caller %d call %d: got %v, want %s (cross-wired mux)", c, i, reply.Payload, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(callers * callsPerCaller)
	if got := reg.Counter("tcp.calls.soak").Value(); got != total {
		t.Fatalf("tcp.calls.soak = %d, want %d", got, total)
	}
	if dials := reg.Counter("tcp.dials").Value(); dials > int64(peers*2) {
		t.Fatalf("tcp.dials = %d for %d peers — pool not reusing connections", dials, peers)
	}
}

// TestChordRingOverPooledTransport mirrors the nettransport ring test: the
// overlay's lookups run over pooled multiplexed sockets.
func TestChordRingOverPooledTransport(t *testing.T) {
	tr := New(WithDialTimeout(500 * time.Millisecond))
	defer tr.Close()
	addrs := freeAddrs(t, 8)
	ring := chord.NewRing(tr, chord.Config{})
	for _, a := range addrs {
		if _, err := ring.AddNode(string(a)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.LastError(); err != nil {
		t.Fatalf("listener failed: %v", err)
	}
	ring.Build()
	nodes := ring.Nodes()
	for i := 0; i < 20; i++ {
		key := chordid.HashKey(fmt.Sprintf("pooled-key-%d", i))
		got, hops, err := nodes[i%len(nodes)].Lookup(key)
		if err != nil {
			t.Fatalf("Lookup over pooled transport: %v", err)
		}
		want, _ := ring.Owner(key)
		if got.ID != want.ID() {
			t.Fatalf("lookup mismatch for %s", key.Short())
		}
		if hops < 0 {
			t.Fatal("negative hops")
		}
	}
}

// TestSpriteOverPooledTransport runs the full stack — share, search, learn —
// over pooled sockets, and checks the hot-path payloads actually traveled on
// the binary codec rather than the gob fallback.
func TestSpriteOverPooledTransport(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithDialTimeout(500*time.Millisecond), WithTelemetry(reg))
	defer tr.Close()
	addrs := freeAddrs(t, 6)
	ring := chord.NewRing(tr, chord.Config{})
	for _, a := range addrs {
		if _, err := ring.AddNode(string(a)); err != nil {
			t.Fatal(err)
		}
	}
	ring.Build()
	net, err := core.NewNetwork(ring, core.Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 6})
	if err != nil {
		t.Fatal(err)
	}

	owner := addrs[0]
	doc := corpus.NewDocument(index.DocID("pooled-doc"), map[string]int{
		"socket": 5, "frame": 3, "mux": 1,
	})
	if err := net.Share(owner, doc); err != nil {
		t.Fatalf("Share: %v", err)
	}
	rl, err := net.Search(addrs[3], []string{"socket"}, 5)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(rl) != 1 || rl[0].Doc != "pooled-doc" {
		t.Fatalf("search results = %v", rl)
	}
	if _, err := net.Search(addrs[4], []string{"socket", "mux"}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.LearnAll(); err != nil {
		t.Fatalf("LearnAll: %v", err)
	}
	rl, err = net.Search(addrs[5], []string{"mux"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 {
		t.Fatalf("learned term not findable: %v", rl)
	}
	if bin := reg.Counter("tcp.codec.binary.bytes").Value(); bin == 0 {
		t.Fatal("no bytes traveled on the binary codec — registrations not in effect")
	}
}
