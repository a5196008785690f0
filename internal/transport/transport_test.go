package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/wire"
)

// note is the payload these tests send. Like every protocol payload it has a
// binary codec; a type without one cannot be sent.
type note struct {
	Text  string
	Items []string
}

func init() {
	wire.RegisterBinary(wire.KindTestBase, note{},
		func(e *wire.Encoder, v any) {
			n := v.(note)
			e.String(n.Text)
			e.StringSlice(n.Items)
		},
		func(d *wire.Decoder) any {
			var n note
			n.Text = d.String()
			n.Items = d.StringSlice()
			return n
		})
}

func echo() simnet.Handler {
	return simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: msg.Type + ".ok", Payload: msg.Payload, Size: msg.Size}, nil
	})
}

func freeAddrs(t *testing.T, n int) []simnet.Addr {
	t.Helper()
	addrs, err := FreeAddrs(n)
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
	reply, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping", Payload: note{Text: "hello"}, Size: 5})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Type != "ping.ok" || reply.Payload.(note).Text != "hello" {
		t.Fatalf("reply = %+v", reply)
	}
	if got := tr.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d, want 1 (pooled, not dial-per-call)", got)
	}
}

// A received message costs what its sender billed, wire.Size of its payload:
// the frame carries no size of its own, and the receiver reads it off the
// payload, its length without the kind. A message without a payload is free.
func TestFrameSizeIsPayloadLength(t *testing.T) {
	for _, payload := range []any{note{Text: "hello", Items: []string{"a", "bc"}}, note{}, nil} {
		enc, _ := wire.AppendBinary(nil, payload)
		want := max(len(enc)-2, 0)
		reqFrame, err := appendRequestFrame(nil, 1, "client", "ping", payload)
		if err != nil {
			t.Fatal(err)
		}
		respFrame, err := appendResponseFrame(nil, 1, "ping.ok", "", payload)
		if err != nil {
			t.Fatal(err)
		}
		req, _, err := parseFrame(reqFrame[4:])
		if err != nil {
			t.Fatal(err)
		}
		_, resp, err := parseFrame(respFrame[4:])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			what  string
			codec byte
			data  []byte
		}{{"request", req.codec, req.payload}, {"response", resp.codec, resp.payload}} {
			msg, err := decodeMessage("ping", f.codec, f.data)
			if err != nil {
				t.Fatal(err)
			}
			if msg.Size != want || !reflect.DeepEqual(msg.Payload, payload) {
				t.Fatalf("%s of %#v decodes to %#v of size %d, want size %d", f.what, payload, msg.Payload, msg.Size, want)
			}
		}
	}
}

func TestPoolReusesOneConnAcrossSequentialCalls(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	for i := 0; i < 50; i++ {
		if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping", Size: 1}); err != nil {
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
// in flight at once, all answered, over a single pooled connection however
// many are in flight.
func TestConcurrentCallsMultiplexOnOneSocket(t *testing.T) {
	const callers = 128
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
			reply, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "hold", Payload: note{Text: fmt.Sprintf("v%d", i)}})
			if err != nil {
				errs <- err
				return
			}
			if reply.Payload.(note).Text != fmt.Sprintf("v%d", i) {
				errs <- fmt.Errorf("call %d got %v (response demuxed to wrong caller)", i, reply.Payload)
			}
		}(i)
	}
	// Wait until every request is simultaneously in a handler, so all of
	// them are provably in flight together, then check the socket count.
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

// TestGroupCommitFlushesEveryFrame: concurrent calls group-commit their
// frames, and every frame is flushed exactly once — one request and one
// reply per call, none stranded in a buffer.
func TestGroupCommitFlushesEveryFrame(t *testing.T) {
	const calls = 64
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping", Payload: note{Text: fmt.Sprint(i)}}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A reply's flush is recorded just after it returns, possibly after
	// its caller has already read the reply.
	frames := reg.Histogram("tcp.batch.frames")
	deadline := time.Now().Add(5 * time.Second)
	for frames.Sum() < 2*calls && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := frames.Sum(); got != 2*calls {
		t.Fatalf("tcp.batch.frames sum = %d after %d calls, want %d", got, calls, 2*calls)
	}
	if flushes := frames.Count(); flushes < 2 || flushes > 2*calls {
		t.Fatalf("%d flushes for %d frames", flushes, 2*calls)
	}
}

// TestCloseLeavesNoGoroutines: after calls have opened both sides of a
// connection, Close ends every goroutine the transport started.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := New()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	tr.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetiredPooledConnIsRetried: a call handed a pooled connection that
// close has already retired writes nothing to it (errConnClosed), and is
// retried once on a freshly dialed connection, where it succeeds.
func TestRetiredPooledConnIsRetried(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	p := tr.pool(addr)
	stale := p.current()
	stale.close(errors.New("retired"))
	if err := stale.w.write([]byte("frame")); !errors.Is(err, errConnClosed) {
		t.Fatalf("write after close: err = %v, want errConnClosed", err)
	}
	// The pool handed stale to this call just before close removed it.
	p.mu.Lock()
	p.conn = stale
	p.mu.Unlock()
	tr.met.connsOpen.Add(1)

	reply, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"})
	if err != nil || reply.Type != "ping.ok" {
		t.Fatalf("call on a retired pooled conn: %+v, %v", reply, err)
	}
	if got := reg.Counter("tcp.dials").Value(); got != 2 {
		t.Fatalf("tcp.dials = %d, want 2 (the first connection and the retry's)", got)
	}
	if c := p.current(); c == nil || c == stale || tr.OpenConns() != 1 || reg.Gauge("tcp.conns.open").Value() != 1 {
		t.Fatalf("pool after the retry: conn %p (stale %p), OpenConns %d, tcp.conns.open %d", c, stale, tr.OpenConns(), reg.Gauge("tcp.conns.open").Value())
	}
	if negativeCached(tr, addr) {
		t.Fatal("a retried call negative-cached its peer")
	}
}

// BenchmarkCall is one echo round trip over loopback, with 1 caller and with
// 16 concurrent callers sharing the pooled connection.
func BenchmarkCall(b *testing.B) {
	for _, callers := range []int{1, 16} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			tr := New()
			defer tr.Close()
			addrs, err := FreeAddrs(1)
			if err != nil {
				b.Fatal(err)
			}
			addr := addrs[0]
			tr.Register(addr, echo())
			msg := simnet.Message{Type: "ping", Payload: note{Text: "hello"}}
			if _, err := tr.CallCtx(context.Background(), "client", addr, msg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := tr.CallCtx(context.Background(), "client", addr, msg); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestReconnectAfterPeerRestart kills a peer (listener and its accepted
// connections), brings it back at the same address, and verifies the pool
// recovers transparently.
func TestReconnectAfterPeerRestart(t *testing.T) {
	server := New()
	defer server.Close()
	client := New()
	client.deadTTL = 50 * time.Millisecond
	defer client.Close()
	addr := freeAddrs(t, 1)[0]
	server.Register(addr, echo())
	if _, err := client.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
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
		_, err := client.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"})
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
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "fast"}); err != nil {
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
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "fast"}); err != nil {
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
	_, err := tr.CallCtx(context.Background(), "client", "127.0.0.1:1", simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if got := reg.Counter("tcp.errors.dial").Value(); got != 1 {
		t.Fatalf("tcp.errors.dial = %d, want 1", got)
	}
	if tr.Alive("127.0.0.1:1") {
		t.Fatal("dead peer reported alive (negative cache miss)")
	}
	// Second call hits the negative cache, not the network.
	_, err = tr.CallCtx(context.Background(), "client", "127.0.0.1:1", simnet.Message{Type: "ping"})
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
	reg := telemetry.NewRegistry()
	tr := New(WithCallTimeout(150*time.Millisecond), WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		<-block
		return simnet.Message{}, nil
	}))
	start := time.Now()
	_, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "wedge"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~150ms", elapsed)
	}
	// The wedged socket was retired and the peer negative-cached.
	if got := tr.OpenConns(); got != 0 {
		t.Fatalf("OpenConns = %d after call timeout, want 0 (wedged conn retired)", got)
	}
	if got := reg.Counter("tcp.errors.timeout").Value(); got != 1 {
		t.Fatalf("tcp.errors.timeout = %d, want 1", got)
	}
	if !negativeCached(tr, addr) {
		t.Fatal("timed-out peer was not negative-cached")
	}
}

func negativeCached(tr *Transport, addr simnet.Addr) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, dead := tr.deadUntil[addr]
	return dead
}

func TestHandlerErrorPropagates(t *testing.T) {
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, errors.New("kaboom")
	}))
	_, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want remote kaboom", err)
	}
	if errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("handler error misreported as unreachable: %v", err)
	}
}

func TestUnregisterStopsServing(t *testing.T) {
	tr := New(WithDialTimeout(200 * time.Millisecond))
	tr.deadTTL = 10 * time.Millisecond
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	tr.Unregister(addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"})
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
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
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
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
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
	if _, err := tr.CallCtx(context.Background(), "a", "127.0.0.1:1", simnet.Message{Type: "ping"}); !errors.Is(err, simnet.ErrUnreachable) {
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
		_, err := client.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "slow"})
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
// across several peers while the race detector watches.
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
				reply, err := tr.CallCtx(context.Background(), "client", to, simnet.Message{Type: "soak", Payload: note{Text: want}, Size: len(want)})
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", c, i, err)
					return
				}
				if reply.Payload.(note).Text != want {
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

// TestChordRingOverPooledTransport runs the overlay's joins, stabilization
// and lookups over pooled multiplexed sockets.
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
// over pooled sockets, and checks the binary codec's byte counter saw it.
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
	if err := net.ShareCtx(context.Background(), owner, doc); err != nil {
		t.Fatalf("Share: %v", err)
	}
	rl, err := net.SearchCtx(context.Background(), addrs[3], []string{"socket"}, 5)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(rl) != 1 || rl[0].Doc != "pooled-doc" {
		t.Fatalf("search results = %v", rl)
	}
	if _, err := net.SearchCtx(context.Background(), addrs[4], []string{"socket", "mux"}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("LearnAll: %v", err)
	}
	rl, err = net.SearchCtx(context.Background(), addrs[5], []string{"mux"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 {
		t.Fatalf("learned term not findable: %v", rl)
	}
	if bin := reg.Counter("tcp.codec.binary.bytes").Value(); bin == 0 {
		t.Fatal("tcp.codec.binary.bytes counted nothing")
	}
}

func TestFreeAddrsDistinct(t *testing.T) {
	seen := map[simnet.Addr]bool{}
	for _, a := range freeAddrs(t, 5) {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
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

	addrs := freeAddrs(t, 5)
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
	want, _ := ring.Owner(joiner.ID())
	if succ.ID != want.ID() {
		t.Fatalf("joiner successor = %s, want %s", succ.ID.Short(), want.ID().Short())
	}
}

func TestReRegisterSwapsHandler(t *testing.T) {
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "v1"}, nil
	}))
	tr.Register(addr, simnet.HandlerFunc(func(simnet.Addr, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Type: "v2"}, nil
	}))
	reply, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != "v2" {
		t.Fatalf("re-register did not swap handler: got %q", reply.Type)
	}
}

// TestRegisterUnbindableAddress registers a peer at an address another
// socket already holds: Register records the failure instead of panicking,
// and the peer reads as dead.
func TestRegisterUnbindableAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := simnet.Addr(ln.Addr().String())
	tr := New(WithDialTimeout(200 * time.Millisecond))
	defer tr.Close()
	tr.Register(addr, echo())
	if tr.LastError() == nil {
		t.Fatal("binding an address in use recorded no error")
	}
	if tr.Alive(addr) {
		t.Fatal("unbindable peer reported alive")
	}
}

// TestPeerDiesMidCallWrapsUnreachable: a peer that accepts the connection
// and then closes it before replying (crash, restart) must read as
// simnet.ErrUnreachable and be negative-cached — same as a peer that never
// answered the dial.
func TestPeerDiesMidCallWrapsUnreachable(t *testing.T) {
	tr := New()
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
			conn.Close() // slam the door
		}
	}()
	addr := simnet.Addr(ln.Addr().String())
	_, err = tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("mid-call peer death error = %v, want wrapping simnet.ErrUnreachable", err)
	}
	if !negativeCached(tr, addr) {
		t.Fatal("peer that died mid-call was not negative-cached")
	}
}

// TestLargePayloadOverTCP sends a postings-sized payload (several MB) through
// a pooled connection and back, and pins the frame cap on both sides: a
// sender refuses to build a body over DefaultMaxFrame, and a receiver closes
// a connection whose length prefix claims one, before allocating for it.
func TestLargePayloadOverTCP(t *testing.T) {
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	big := note{Text: "postings", Items: make([]string, 300_000)}
	for i := range big.Items {
		big.Items[i] = fmt.Sprintf("term%06d", i)
	}
	reply, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "big", Payload: big, Size: 11 * len(big.Items)})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := reply.Payload.(note); !reflect.DeepEqual(got, big) {
		t.Fatalf("large payload corrupted: %d items, last %q", len(got.Items), got.Items[len(got.Items)-1])
	}

	// Send side. The slice is never written, so its pages are never touched.
	if _, err := finishFrame(nil, make([]byte, 4+DefaultMaxFrame+1)); err == nil {
		t.Fatal("frame body over DefaultMaxFrame accepted for sending")
	}

	// Receive side: a length prefix over the cap closes the connection.
	conn, err := net.DialTimeout("tcp", string(addr), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, DefaultMaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("oversized frame header: read = %v, want the server to close the connection", err)
	}
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatalf("listener stopped serving after an oversized frame: %v", err)
	}
}

// TestLargeFrameAfterIdle: a frame larger than the write buffer goes
// straight to the socket, and must do so under a fresh write deadline, not
// the one the previous flush set and idleness let expire.
func TestLargeFrameAfterIdle(t *testing.T) {
	tr := New(WithCallTimeout(100 * time.Millisecond))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	big := note{Text: "big", Items: make([]string, 20_000)} // ≈ 220 KB
	for i := range big.Items {
		big.Items[i] = fmt.Sprintf("term%06d", i)
	}
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "big", Payload: big}); err != nil {
		t.Fatalf("large call after idle: %v", err)
	}
}

// TestUnregisteredPayloadFailsAtCaller: a payload type without a binary codec
// is an encode error before anything is queued — not an unreachable peer, not
// a frame on the wire — and the pooled connection serves the next call. A
// reply without one fails at the replier, which answers with the error.
func TestUnregisteredPayloadFailsAtCaller(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		if msg.Type == "odd-reply" {
			return simnet.Message{Type: "odd", Payload: struct{ Y int }{1}}, nil
		}
		return echo().HandleMessage(from, msg)
	}))
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping", Payload: note{Text: "warm"}}); err != nil {
		t.Fatal(err)
	}
	_, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "odd", Payload: struct{ X int }{1}})
	if err == nil || !strings.Contains(err.Error(), "no binary codec for struct { X int }") {
		t.Fatalf("unregistered payload: err = %v, want a no-binary-codec error", err)
	}
	if errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("encode error misreported as unreachable: %v", err)
	}
	if got := reg.Counter("tcp.errors.encode").Value(); got != 1 {
		t.Fatalf("tcp.errors.encode = %d, want 1", got)
	}
	reply, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping", Payload: note{Text: "after"}})
	if err != nil || reply.Payload.(note).Text != "after" {
		t.Fatalf("call after the encode error: %+v, %v", reply, err)
	}
	if got := reg.Counter("tcp.served.odd").Value(); got != 0 {
		t.Fatalf("tcp.served.odd = %d: the unencodable call reached the peer", got)
	}
	_, err = tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "odd-reply"})
	if err == nil || !strings.Contains(err.Error(), "no binary codec for struct { Y int }") || errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("unregistered reply: err = %v, want the replier's encode error", err)
	}
	if dials := reg.Counter("tcp.dials").Value(); dials != 1 || tr.OpenConns() != 1 {
		t.Fatalf("tcp.dials = %d, OpenConns = %d: want the one pooled connection throughout", dials, tr.OpenConns())
	}
}

// TestUnknownCodecByteGetsDecodeErrorReply hand-builds a request frame whose
// codec byte is 2 (what gob frames once carried): the server answers it with
// a decode error, and the connection and listener keep serving.
func TestUnknownCodecByteGetsDecodeErrorReply(t *testing.T) {
	tr := New()
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	frame, err := appendRequestFrame(nil, 7, "client", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] = 2 // the codec byte, last in a frame with no payload
	conn, err := net.DialTimeout("tcp", string(addr), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	exchange := func(frame []byte) *response {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(conn, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		_, resp, err := parseFrame(body)
		if err != nil || resp == nil {
			t.Fatalf("reply is not a response frame: %v", err)
		}
		return resp
	}
	if resp := exchange(frame); resp.id != 7 || !strings.Contains(resp.errMsg, "unknown payload codec 2") {
		t.Fatalf("reply = %+v, want id 7 and an unknown-codec error", resp)
	}
	frame[len(frame)-1] = codecNone
	if resp := exchange(frame); resp.errMsg != "" || resp.msgType != "ping.ok" {
		t.Fatalf("next frame on the same connection: %+v", resp)
	}
	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); err != nil {
		t.Fatalf("listener stopped serving: %v", err)
	}
}

// TestMismatchedPayloadGetsErrorReply hand-builds well-formed request frames
// whose type string names one message and whose payload is another's, or
// none, and writes them to a SPRITE peer's socket. A handler that asserted the
// payload's type would panic in the server's dispatch goroutine and take the
// process down; each frame must instead get an error reply, and the peer must
// keep answering on the same connection and on new calls.
func TestMismatchedPayloadGetsErrorReply(t *testing.T) {
	tr := New(WithDialTimeout(500 * time.Millisecond))
	defer tr.Close()
	addrs := freeAddrs(t, 2)
	ring := chord.NewRing(tr, chord.Config{})
	for _, a := range addrs {
		if _, err := ring.AddNode(string(a)); err != nil {
			t.Fatal(err)
		}
	}
	ring.Build()
	if _, err := core.NewNetwork(ring, core.Config{}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", string(addrs[0]), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	exchange := func(id uint64, msgType string, payload any) *response {
		t.Helper()
		frame, err := appendRequestFrame(nil, id, "client", msgType, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(conn, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("%s: no reply: %v", msgType, err)
		}
		_, resp, err := parseFrame(body)
		if err != nil || resp == nil || resp.id != id {
			t.Fatalf("%s: reply is not the response frame: %+v, %v", msgType, resp, err)
		}
		return resp
	}
	for i, c := range []struct {
		msgType string
		payload any
	}{
		{"chord.next_hop", chord.Ref{Addr: "x"}},
		{"chord.next_hop", nil},
		{"chord.notify", note{Text: "x"}},
		{"chord.notify", nil},
		{"sprite.get_postings", chord.Ref{Addr: "x"}},
		{"sprite.poll", nil},
		{"sprite.publish", note{Text: "x"}},
	} {
		if resp := exchange(uint64(i+1), c.msgType, c.payload); resp.errMsg == "" {
			t.Fatalf("%s carrying %T answered %+v, want an error", c.msgType, c.payload, resp)
		}
	}
	if resp := exchange(100, "chord.ping", nil); resp.errMsg != "" {
		t.Fatalf("ping on the same connection after the mismatched frames: %+v", resp)
	}
	if _, _, err := ring.Nodes()[1].Lookup(chordid.HashKey("after")); err != nil {
		t.Fatalf("lookup after the mismatched frames: %v", err)
	}
}

// TestDeadPeerTTLExpiryAndReuse covers the negative cache: a failed dial
// marks the peer dead for the TTL (calls fail fast, Alive is false
// without re-probing, even once the peer is up), and once the TTL passes the
// address is probed — and usable — again.
func TestDeadPeerTTLExpiryAndReuse(t *testing.T) {
	const ttl = 150 * time.Millisecond
	tr := New(WithDialTimeout(200 * time.Millisecond))
	tr.deadTTL = ttl
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]

	if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("call to vacant addr: err = %v, want ErrUnreachable", err)
	}
	if tr.Alive(addr) {
		t.Fatal("addr alive while negative-cached")
	}

	server := New()
	defer server.Close()
	server.Register(addr, echo())
	if err := server.LastError(); err != nil {
		t.Fatal(err)
	}
	if tr.Alive(addr) {
		t.Fatal("negative cache ignored before TTL expiry")
	}

	deadline := time.Now().Add(5 * time.Second)
	for !tr.Alive(addr) {
		if time.Now().After(deadline) {
			t.Fatal("addr still dead long after the TTL expired")
		}
		time.Sleep(ttl / 3)
	}
	reply, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping"})
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
	tr := New()
	got := tr.deadTTL
	tr.Close()
	if got != time.Second {
		t.Fatalf("dead-peer TTL = %v, want 1s", got)
	}
}

// TestTelemetryCountsCallsAndServes checks the success-path instrumentation:
// caller-side per-type calls/bytes/latency and server-side served counts.
func TestTelemetryCountsCallsAndServes(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	tr.Register(addr, echo())
	payload := note{Text: "hello"}
	for i := 0; i < 3; i++ {
		if _, err := tr.CallCtx(context.Background(), "client", addr, simnet.Message{Type: "ping", Payload: payload, Size: wire.Size(payload)}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	// Each call bills the request and its echo, 7 bytes each.
	for name, want := range map[string]int64{"tcp.calls.ping": 3, "tcp.served.ping": 3, "tcp.bytes.ping": 42} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Histogram("tcp.latency_us").Count(); got != 3 {
		t.Fatalf("tcp.latency_us count = %d, want 3", got)
	}
}
