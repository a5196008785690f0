package nettransport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

func echo() simnet.Handler {
	return simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: msg.Type + ".ok", Payload: msg.Payload, Size: msg.Size}, nil
	})
}

func TestFreeAddrsDistinct(t *testing.T) {
	addrs, err := FreeAddrs(5)
	if err != nil {
		t.Fatalf("FreeAddrs: %v", err)
	}
	seen := map[simnet.Addr]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
	}
}

func TestCallRoundTripOverTCP(t *testing.T) {
	tr := New()
	defer tr.Close()
	addrs, err := FreeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Register(addrs[0], echo())
	if err := tr.LastError(); err != nil {
		t.Fatalf("Register: %v", err)
	}
	reply, err := tr.Call("client", addrs[0], simnet.Message{Type: "ping", Payload: "hello", Size: 5})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Type != "ping.ok" || reply.Payload.(string) != "hello" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestCallUnreachable(t *testing.T) {
	tr := New(WithDialTimeout(200 * time.Millisecond))
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
	tr := New()
	defer tr.Close()
	addrs, _ := FreeAddrs(1)
	tr.Register(addrs[0], simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, errors.New("kaboom")
	}))
	_, err := tr.Call("client", addrs[0], simnet.Message{Type: "x"})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("handler error lost: %v", err)
	}
}

func TestUnregisterStopsServing(t *testing.T) {
	tr := New(WithDialTimeout(200 * time.Millisecond))
	defer tr.Close()
	addrs, _ := FreeAddrs(1)
	tr.Register(addrs[0], echo())
	if _, err := tr.Call("c", addrs[0], simnet.Message{Type: "a"}); err != nil {
		t.Fatal(err)
	}
	tr.Unregister(addrs[0])
	if _, err := tr.Call("c", addrs[0], simnet.Message{Type: "a"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("call after unregister: %v", err)
	}
}

func TestAliveLocalAndRemote(t *testing.T) {
	tr := New(WithDialTimeout(200 * time.Millisecond))
	defer tr.Close()
	addrs, _ := FreeAddrs(1)
	tr.Register(addrs[0], echo())
	if !tr.Alive(addrs[0]) {
		t.Fatal("local listener not alive")
	}
	// A second transport (remote view) can probe it too.
	tr2 := New(WithDialTimeout(200 * time.Millisecond))
	defer tr2.Close()
	if !tr2.Alive(addrs[0]) {
		t.Fatal("remote probe failed")
	}
}

func TestConcurrentCalls(t *testing.T) {
	tr := New()
	defer tr.Close()
	addrs, _ := FreeAddrs(1)
	tr.Register(addrs[0], echo())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := tr.Call("c", addrs[0], simnet.Message{Type: "t", Payload: fmt.Sprintf("%d-%d", w, i)}); err != nil {
					errs <- err
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
	tr := New(WithDialTimeout(500 * time.Millisecond))
	defer tr.Close()
	addrs, err := FreeAddrs(8)
	if err != nil {
		t.Fatal(err)
	}
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
	tr := New(WithDialTimeout(500 * time.Millisecond))
	defer tr.Close()
	addrs, err := FreeAddrs(6)
	if err != nil {
		t.Fatal(err)
	}
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
	doc := corpus.NewDocument(index.DocID("tcp-doc"), map[string]int{
		"socket": 5, "frame": 3, "gob": 1,
	})
	if err := net.Share(owner, doc); err != nil {
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
	if _, err := net.Search(addrs[4], []string{"socket", "gob"}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.LearnAll(); err != nil {
		t.Fatalf("LearnAll over TCP: %v", err)
	}
	rl, err = net.Search(addrs[5], []string{"gob"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 {
		t.Fatalf("learned term not findable over TCP: %v", rl)
	}
}

// TestJoinRemoteAcrossTransports joins a node hosted on one Transport into a
// ring hosted on another, knowing only the bootstrap's TCP address — the
// cross-process join path.
func TestJoinRemoteAcrossTransports(t *testing.T) {
	trA := New(WithDialTimeout(500 * time.Millisecond))
	defer trA.Close()
	trB := New(WithDialTimeout(500 * time.Millisecond))
	defer trB.Close()

	addrs, err := FreeAddrs(5)
	if err != nil {
		t.Fatal(err)
	}
	ring := chord.NewRing(trA, chord.Config{})
	for _, a := range addrs[:4] {
		if _, err := ring.AddNode(string(a)); err != nil {
			t.Fatal(err)
		}
	}
	ring.Build()

	// The joiner lives on a different Transport instance — it shares nothing
	// with the ring but the wire protocol.
	joiner := chord.NewNode(trB, string(addrs[4]), chord.Config{})
	if err := joiner.JoinRemote(addrs[0]); err != nil {
		t.Fatalf("JoinRemote: %v", err)
	}
	succ := joiner.Successor()
	if succ.IsZero() || succ.ID == joiner.ID() {
		t.Fatalf("joiner successor = %v", succ)
	}
	// The successor must be the globally correct one.
	want, _ := ring.Owner(joiner.ID())
	if succ.ID != want.ID() {
		t.Fatalf("joiner successor = %s, want %s", succ.ID.Short(), want.ID().Short())
	}
}

func TestLargePayloadOverTCP(t *testing.T) {
	gob.Register(map[string]int{}) // test-only payload type
	tr := New()
	defer tr.Close()
	addrs, _ := FreeAddrs(1)
	tr.Register(addrs[0], echo())
	// A postings-sized payload (map with many entries) must survive the gob
	// round trip intact.
	big := make(map[string]int, 5000)
	for i := 0; i < 5000; i++ {
		big[fmt.Sprintf("term%04d", i)] = i
	}
	reply, err := tr.Call("c", addrs[0], simnet.Message{Type: "big", Payload: big, Size: len(big) * 12})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	got := reply.Payload.(map[string]int)
	if len(got) != len(big) || got["term4999"] != 4999 {
		t.Fatalf("large payload corrupted: %d entries", len(got))
	}
}

func TestCallTimeoutOnStuckHandler(t *testing.T) {
	tr := New(WithCallTimeout(300 * time.Millisecond))
	defer tr.Close()
	addrs, _ := FreeAddrs(1)
	block := make(chan struct{})
	tr.Register(addrs[0], simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		<-block // never replies within the deadline
		return simnet.Message{}, nil
	}))
	defer close(block)
	start := time.Now()
	_, err := tr.Call("c", addrs[0], simnet.Message{Type: "stuck"})
	if err == nil {
		t.Fatal("stuck handler did not time out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~300ms", elapsed)
	}
}

func TestReRegisterSwapsHandler(t *testing.T) {
	tr := New()
	defer tr.Close()
	addrs, _ := FreeAddrs(1)
	tr.Register(addrs[0], simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "v1"}, nil
	}))
	tr.Register(addrs[0], simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "v2"}, nil
	}))
	reply, err := tr.Call("c", addrs[0], simnet.Message{Type: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != "v2" {
		t.Fatalf("re-register did not swap handler: got %q", reply.Type)
	}
}

func TestRegisterUnbindableAddress(t *testing.T) {
	tr := New(WithDialTimeout(200 * time.Millisecond))
	defer tr.Close()
	// Port 1 requires privileges; Register must record the failure instead
	// of panicking, and the peer must read as dead.
	tr.Register("127.0.0.1:1", echo())
	if tr.LastError() == nil {
		t.Skip("binding to port 1 unexpectedly allowed in this environment")
	}
	if tr.Alive("127.0.0.1:1") {
		t.Fatal("unbindable peer reported alive")
	}
}

func TestRegisterAfterClose(t *testing.T) {
	tr := New()
	tr.Close()
	addrs, _ := FreeAddrs(1)
	tr.Register(addrs[0], echo())
	if tr.LastError() == nil {
		t.Fatal("register after Close did not record an error")
	}
}

// TestDialFailureWrapsUnreachable pins the error contract for the dial path:
// a connection-refused destination must read as simnet.ErrUnreachable so the
// overlay routes around it, and the dial-error counter must tick.
func TestDialFailureWrapsUnreachable(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithDialTimeout(300*time.Millisecond), WithTelemetry(reg))
	defer tr.Close()
	// Reserve-and-release guarantees nothing is listening at the address.
	addrs, err := FreeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Call("c", addrs[0], simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("dial failure error = %v, want wrapping simnet.ErrUnreachable", err)
	}
	if got := reg.Counter("net.errors.dial").Value(); got != 1 {
		t.Fatalf("net.errors.dial = %d, want 1", got)
	}
	if tr.Alive(addrs[0]) {
		t.Fatal("dead peer still reads as alive")
	}
}

// TestCallTimeoutWrapsUnreachable covers the harder half of the timeout
// contract: the server accepts the connection but never replies. The reply
// deadline must expire within the call timeout, surface as
// simnet.ErrUnreachable, tick net.errors.timeout, and mark the peer dead.
func TestCallTimeoutWrapsUnreachable(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithCallTimeout(300*time.Millisecond), WithTelemetry(reg))
	defer tr.Close()
	// A raw listener that accepts and then sits on the connection: the
	// request frame is consumed by TCP buffers, so the caller blocks on the
	// reply read until its deadline fires.
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
	if got := reg.Counter("net.errors.timeout").Value(); got != 1 {
		t.Fatalf("net.errors.timeout = %d, want 1", got)
	}
	tr.mu.Lock()
	_, dead := tr.deadUntil[addr]
	tr.mu.Unlock()
	if !dead {
		t.Fatal("timed-out peer was not negative-cached as dead")
	}
}

// TestTelemetryCountsCallsAndServes checks the success-path instrumentation:
// caller-side per-type calls/bytes/latency and server-side served counts.
func TestTelemetryCountsCallsAndServes(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addrs, err := FreeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Register(addrs[0], echo())
	for i := 0; i < 3; i++ {
		if _, err := tr.Call("c", addrs[0], simnet.Message{Type: "ping", Size: 8}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if got := reg.Counter("net.calls.ping").Value(); got != 3 {
		t.Fatalf("net.calls.ping = %d, want 3", got)
	}
	if got := reg.Counter("net.served.ping").Value(); got != 3 {
		t.Fatalf("net.served.ping = %d, want 3", got)
	}
	if got := reg.Counter("net.bytes.ping").Value(); got != 48 {
		t.Fatalf("net.bytes.ping = %d, want 48 (3 x (8 req + 8 reply))", got)
	}
	if got := reg.Histogram("net.latency_us").Count(); got != 3 {
		t.Fatalf("net.latency_us count = %d, want 3", got)
	}
}

// TestDeadPeerTTLExpiryAndReuse covers the configurable negative cache: a
// failed dial marks the peer dead for the configured TTL (calls fail fast,
// Alive is false without re-probing), and once the TTL passes the address is
// probed — and usable — again.
func TestDeadPeerTTLExpiryAndReuse(t *testing.T) {
	const ttl = 150 * time.Millisecond
	tr := New(WithDialTimeout(200*time.Millisecond), WithDeadPeerTTL(ttl))
	defer tr.Close()
	addrs, err := FreeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	addr := addrs[0]

	// Nothing listens yet: the first call fails and negative-caches addr.
	if _, err := tr.Call("client", addr, simnet.Message{Type: "ping"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("call to vacant addr: err = %v, want ErrUnreachable", err)
	}
	if tr.Alive(addr) {
		t.Fatal("addr alive while negative-cached")
	}

	// The peer comes up inside the TTL window; the cache still says dead.
	tr2 := New()
	defer tr2.Close()
	tr2.Register(addr, echo())
	if err := tr2.LastError(); err != nil {
		t.Fatal(err)
	}
	if tr.Alive(addr) {
		t.Fatal("negative cache ignored before TTL expiry")
	}

	// After expiry the address is probed again and reused.
	deadline := time.Now().Add(5 * time.Second)
	for !tr.Alive(addr) {
		if time.Now().After(deadline) {
			t.Fatal("addr still dead long after the TTL expired")
		}
		time.Sleep(ttl / 3)
	}
	reply, err := tr.Call("client", addr, simnet.Message{Type: "ping"})
	if err != nil {
		t.Fatalf("call after TTL expiry: %v", err)
	}
	if reply.Type != "ping.ok" {
		t.Fatalf("reply type = %q, want ping.ok", reply.Type)
	}
}

// TestDeadPeerTTLDefault pins the default (1s) so the zero-config behaviour
// stays what the overlay's failure handling was tuned against.
func TestDeadPeerTTLDefault(t *testing.T) {
	if d := New().deadTTL; d != time.Second {
		t.Fatalf("default dead-peer TTL = %v, want 1s", d)
	}
	if d := New(WithDeadPeerTTL(-time.Second)).deadTTL; d != time.Second {
		t.Fatalf("non-positive TTL accepted: %v", d)
	}
	if d := New(WithDeadPeerTTL(3 * time.Second)).deadTTL; d != 3*time.Second {
		t.Fatalf("configured TTL = %v, want 3s", d)
	}
}

// TestPeerDiesMidCallWrapsUnreachable pins the audit half of the error
// contract: a peer that accepts the connection and then closes it before
// replying (crash, restart) must classify as simnet.ErrUnreachable via
// structural error matching, and be negative-cached — same as a peer that
// never answered the dial.
func TestPeerDiesMidCallWrapsUnreachable(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Slam the door: the caller's reply read sees EOF or a reset.
			conn.Close()
		}
	}()
	addr := simnet.Addr(ln.Addr().String())
	_, err = tr.Call("c", addr, simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("mid-call peer death error = %v, want wrapping simnet.ErrUnreachable", err)
	}
	tr.mu.Lock()
	_, dead := tr.deadUntil[addr]
	tr.mu.Unlock()
	if !dead {
		t.Fatal("peer that died mid-call was not negative-cached")
	}
}

// TestIsPeerGoneClassification drives the classifier with the error shapes
// the net package actually produces — wrapped in *net.OpError chains, the
// way Call sees them.
func TestIsPeerGoneClassification(t *testing.T) {
	gone := []error{
		io.EOF,
		io.ErrUnexpectedEOF,
		&net.OpError{Op: "read", Err: os.NewSyscallError("read", syscall.ECONNRESET)},
		&net.OpError{Op: "write", Err: os.NewSyscallError("write", syscall.EPIPE)},
		&net.OpError{Op: "dial", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)},
		fmt.Errorf("wrapped: %w", io.EOF),
	}
	for _, err := range gone {
		if !isPeerGone(err) {
			t.Errorf("isPeerGone(%v) = false, want true", err)
		}
	}
	notGone := []error{
		nil,
		errors.New("gob: type mismatch"),
		context.Canceled,
		&net.OpError{Op: "read", Err: os.NewSyscallError("read", syscall.ENOMEM)},
	}
	for _, err := range notGone {
		if isPeerGone(err) {
			t.Errorf("isPeerGone(%v) = true, want false", err)
		}
	}
}

// TestDialAndConnGaugeInstrumentation checks the pooling comparison's
// denominators: every call on this transport dials once, and the
// open-connection gauge returns to zero but retains its peak.
func TestDialAndConnGaugeInstrumentation(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addrs, err := FreeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Register(addrs[0], echo())
	const calls = 7
	for i := 0; i < calls; i++ {
		if _, err := tr.Call("c", addrs[0], simnet.Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("net.dials").Value(); got != calls {
		t.Fatalf("net.dials = %d, want %d (dial-per-RPC)", got, calls)
	}
	g := reg.Gauge("net.conns.open")
	if got := g.Value(); got != 0 {
		t.Fatalf("net.conns.open = %d after calls completed, want 0", got)
	}
	if g.Peak() < 1 {
		t.Fatalf("net.conns.open peak = %d, want >= 1", g.Peak())
	}
}
