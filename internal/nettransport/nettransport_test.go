// Package nettransport_test holds the contract tests of the deleted
// dial-per-RPC transport, kept under their original names and run against
// internal/transport, the one socket transport that replaced it. There is no
// non-test code here: every behaviour these tests pin is internal/transport's.
package nettransport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/transport"
	"github.com/spritedht/sprite/internal/wire"
)

// note is the payload these tests send; like every payload it has a binary
// codec, since a type without one cannot be sent.
type note struct{ Text string }

func init() {
	wire.RegisterBinary(wire.KindTestBase, note{},
		func(e *wire.Encoder, v any) { e.String(v.(note).Text) },
		func(d *wire.Decoder) any { return note{Text: d.String()} })
}

func echo() simnet.Handler {
	return simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: msg.Type + ".ok", Payload: msg.Payload, Size: msg.Size}, nil
	})
}

func freeAddrs(t *testing.T, n int) []simnet.Addr {
	t.Helper()
	addrs, err := transport.FreeAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// slamDoor listens on loopback and closes every accepted connection at once,
// after setting linger to zero when rst is true so the close is a reset
// rather than an orderly EOF.
func slamDoor(t *testing.T, rst bool) simnet.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok && rst {
				tc.SetLinger(0)
			}
			conn.Close()
		}
	}()
	return simnet.Addr(ln.Addr().String())
}

func TestCallRoundTripOverTCP(t *testing.T) {
	tr := transport.New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if err := tr.LastError(); err != nil {
		t.Fatalf("Register: %v", err)
	}
	reply, err := tr.Call("client", addr, simnet.Message{Type: "ping", Payload: note{Text: "hello"}, Size: 5})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Type != "ping.ok" || reply.Payload.(note).Text != "hello" || reply.Size != 5 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestCallUnreachable(t *testing.T) {
	tr := transport.New(transport.WithDialTimeout(200 * time.Millisecond))
	defer tr.Close()
	_, err := tr.Call("client", "127.0.0.1:1", simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if tr.Alive("127.0.0.1:1") {
		t.Fatal("dead peer reported alive (negative cache miss)")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	tr := transport.New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, errors.New("kaboom")
	}))
	_, err := tr.Call("client", addr, simnet.Message{Type: "x"})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("handler error lost: %v", err)
	}
	if errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("handler error reads as unreachable: %v", err)
	}
}

func TestUnregisterStopsServing(t *testing.T) {
	tr := transport.New(transport.WithDialTimeout(200 * time.Millisecond))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if _, err := tr.Call("c", addr, simnet.Message{Type: "a"}); err != nil {
		t.Fatal(err)
	}
	tr.Unregister(addr)
	if _, err := tr.Call("c", addr, simnet.Message{Type: "a"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("call after unregister: %v", err)
	}
}

func TestAliveLocalAndRemote(t *testing.T) {
	tr := transport.New(transport.WithDialTimeout(200 * time.Millisecond))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if !tr.Alive(addr) {
		t.Fatal("local listener not alive")
	}
	// A second transport (remote view) can probe it too.
	tr2 := transport.New(transport.WithDialTimeout(200 * time.Millisecond))
	defer tr2.Close()
	if !tr2.Alive(addr) {
		t.Fatal("remote probe failed")
	}
}

func TestConcurrentCalls(t *testing.T) {
	tr := transport.New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				want := fmt.Sprintf("%d-%d", w, i)
				reply, err := tr.Call("c", addr, simnet.Message{Type: "t", Payload: note{Text: want}})
				if err != nil {
					errs <- err
					return
				}
				if got := reply.Payload.(note).Text; got != want {
					errs <- fmt.Errorf("reply %q, want %q", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestChordRingOverTCP runs the real overlay protocol — joins, stabilization,
// iterative lookups — over loopback sockets.
func TestChordRingOverTCP(t *testing.T) {
	tr := transport.New(transport.WithDialTimeout(500 * time.Millisecond))
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
		key := chordid.HashKey(fmt.Sprintf("tcp-key-%d", i))
		got, hops, err := nodes[i%len(nodes)].Lookup(key)
		if err != nil {
			t.Fatalf("Lookup over TCP: %v", err)
		}
		want, _ := ring.Owner(key)
		if got.ID != want.ID() {
			t.Fatalf("lookup mismatch over TCP for %s", key.Short())
		}
		if hops < 0 {
			t.Fatal("negative hops")
		}
	}
}

// TestSpriteOverTCP runs the full SPRITE stack — share, search, learn — over
// loopback sockets, proving the protocol does not depend on the simulator.
func TestSpriteOverTCP(t *testing.T) {
	tr := transport.New(transport.WithDialTimeout(500 * time.Millisecond))
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

	doc := corpus.NewDocument(index.DocID("tcp-doc"), map[string]int{
		"socket": 5, "frame": 3, "codec": 1,
	})
	if err := net.Share(addrs[0], doc); err != nil {
		t.Fatalf("Share over TCP: %v", err)
	}
	rl, err := net.Search(addrs[3], []string{"socket"}, 5)
	if err != nil {
		t.Fatalf("Search over TCP: %v", err)
	}
	if len(rl) != 1 || rl[0].Doc != "tcp-doc" {
		t.Fatalf("search results = %v", rl)
	}
	// The rare term is unindexed; query it together with an indexed term,
	// learn, and verify it becomes findable — the full learning loop over
	// real sockets.
	if _, err := net.Search(addrs[4], []string{"socket", "codec"}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("LearnAll over TCP: %v", err)
	}
	rl, err = net.Search(addrs[5], []string{"codec"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 {
		t.Fatalf("learned term not findable over TCP: %v", rl)
	}
}

func TestCallTimeoutOnStuckHandler(t *testing.T) {
	tr := transport.New(transport.WithCallTimeout(300 * time.Millisecond))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	block := make(chan struct{})
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		<-block // never replies within the deadline
		return simnet.Message{}, nil
	}))
	defer close(block)
	start := time.Now()
	_, err := tr.Call("c", addr, simnet.Message{Type: "stuck"})
	if err == nil {
		t.Fatal("stuck handler did not time out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~300ms", elapsed)
	}
}

func TestRegisterAfterClose(t *testing.T) {
	tr := transport.New()
	tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if tr.LastError() == nil {
		t.Fatal("register after Close did not record an error")
	}
}

// TestDialFailureWrapsUnreachable pins the error contract for the dial path:
// a connection-refused destination must read as simnet.ErrUnreachable so the
// overlay routes around it, and the dial-error counter must tick.
func TestDialFailureWrapsUnreachable(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := transport.New(transport.WithDialTimeout(300*time.Millisecond), transport.WithTelemetry(reg))
	defer tr.Close()
	// Reserve-and-release guarantees nothing is listening at the address.
	addr := freeAddrs(t, 1)[0]
	_, err := tr.Call("c", addr, simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("dial failure error = %v, want wrapping simnet.ErrUnreachable", err)
	}
	if got := reg.Counter("tcp.errors.dial").Value(); got != 1 {
		t.Fatalf("tcp.errors.dial = %d, want 1", got)
	}
	if tr.Alive(addr) {
		t.Fatal("dead peer still reads as alive")
	}
}

// TestCallTimeoutWrapsUnreachable covers the harder half of the timeout
// contract: the server accepts the connection but never replies. The call
// timeout must expire, surface as simnet.ErrUnreachable, tick
// tcp.errors.timeout, and mark the peer dead.
func TestCallTimeoutWrapsUnreachable(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := transport.New(transport.WithCallTimeout(300*time.Millisecond), transport.WithTelemetry(reg))
	defer tr.Close()
	// A raw listener that accepts and then sits on the connection: the
	// request frame is consumed by TCP buffers, so the caller waits on the
	// reply until its timer fires.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-hold; conn.Close() }()
		}
	}()
	addr := simnet.Addr(ln.Addr().String())
	start := time.Now()
	_, err = tr.Call("c", addr, simnet.Message{Type: "stuck"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("reply timeout error = %v, want wrapping simnet.ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~300ms", elapsed)
	}
	if got := reg.Counter("tcp.errors.timeout").Value(); got != 1 {
		t.Fatalf("tcp.errors.timeout = %d, want 1", got)
	}
	// The listener still accepts, so only the negative cache makes Alive false.
	if tr.Alive(addr) {
		t.Fatal("timed-out peer was not negative-cached as dead")
	}
}

// TestPeerDiesMidCallWrapsUnreachable pins the audit half of the error
// contract: a peer that accepts the connection and then closes it before
// replying (crash, restart) must read as simnet.ErrUnreachable and be
// negative-cached — same as a peer that never answered the dial.
func TestPeerDiesMidCallWrapsUnreachable(t *testing.T) {
	tr := transport.New()
	defer tr.Close()
	addr := slamDoor(t, false)
	_, err := tr.Call("c", addr, simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("mid-call peer death error = %v, want wrapping simnet.ErrUnreachable", err)
	}
	// The listener still accepts, so only the negative cache makes Alive false.
	if tr.Alive(addr) {
		t.Fatal("peer that died mid-call was not negative-cached")
	}
}

// TestIsPeerGoneClassification drives the peer-gone classification end to
// end with the failure shapes sockets actually produce — refused dial,
// orderly close (EOF), reset (RST) — each of which must read as
// simnet.ErrUnreachable, and with the shapes that are not a vanished peer —
// a handler error, caller cancellation — which must not.
func TestIsPeerGoneClassification(t *testing.T) {
	gone := map[string]simnet.Addr{
		"refused": freeAddrs(t, 1)[0],
		"eof":     slamDoor(t, false),
		"reset":   slamDoor(t, true),
	}
	for name, addr := range gone {
		tr := transport.New(transport.WithDialTimeout(300 * time.Millisecond))
		_, err := tr.Call("c", addr, simnet.Message{Type: "ping"})
		tr.Close()
		if !errors.Is(err, simnet.ErrUnreachable) {
			t.Errorf("%s: err = %v, want wrapping simnet.ErrUnreachable", name, err)
		}
	}

	tr := transport.New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	release := make(chan struct{})
	defer close(release)
	tr.Register(addr, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		if msg.Type == "wait" {
			<-release
		}
		return simnet.Message{}, errors.New("handler says no")
	}))
	if _, err := tr.Call("c", addr, simnet.Message{Type: "x"}); err == nil || errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("handler error = %v, want a non-unreachable error", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := tr.CallCtx(ctx, "c", addr, simnet.Message{Type: "wait"})
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("caller deadline = %v, want context.DeadlineExceeded and not unreachable", err)
	}
	if !tr.Alive(addr) {
		t.Error("caller cancellation negative-cached a live peer")
	}
}

// TestDialAndConnGaugeInstrumentation checks the connection instrumentation:
// sequential calls share one pooled dial, the open-connection gauge holds
// that connection while the pool keeps it, and returns to zero on Close
// while retaining its peak.
func TestDialAndConnGaugeInstrumentation(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := transport.New(transport.WithTelemetry(reg))
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	const calls = 7
	for i := 0; i < calls; i++ {
		if _, err := tr.Call("c", addr, simnet.Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("tcp.dials").Value(); got != 1 {
		t.Fatalf("tcp.dials = %d, want 1 (pooled, not dial-per-RPC)", got)
	}
	g := reg.Gauge("tcp.conns.open")
	if got := g.Value(); got != 1 {
		t.Fatalf("tcp.conns.open = %d while pooled, want 1", got)
	}
	tr.Close()
	if got := g.Value(); got != 0 {
		t.Fatalf("tcp.conns.open = %d after Close, want 0", got)
	}
	if g.Peak() < 1 {
		t.Fatalf("tcp.conns.open peak = %d, want >= 1", g.Peak())
	}
}
