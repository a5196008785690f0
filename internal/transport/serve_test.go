package transport

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// TestServeWorkersAreReused: sequential requests are served by a worker
// that parks between them; a burst of handlers that block together gets a
// worker each; and once the burst is over, no more than maxIdleWorkers of
// its workers stay parked.
func TestServeWorkersAreReused(t *testing.T) {
	const callers = 128
	reg := telemetry.NewRegistry()
	tr := New(WithTelemetry(reg))
	defer tr.Close()
	addr := freeAddrs(t, 1)[0]
	var entered sync.WaitGroup
	entered.Add(callers)
	h := echo()
	tr.Register(addr, simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
		if msg.Type == "hold" {
			// Every burst handler waits here until all of them run at once.
			entered.Done()
			entered.Wait()
		}
		return h.HandleMessage(from, msg)
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	workers := reg.Counter("tcp.serve_workers")

	for i := 0; i < 200; i++ {
		if _, err := tr.CallCtx(ctx, "client", addr, simnet.Message{Type: "ping"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// A reply can reach its caller before its worker has parked, so the
	// next request may find none parked: some slack, not an exact count.
	if got := workers.Value(); got > 10 {
		t.Fatalf("200 sequential calls started %d serve workers, want at most 10", got)
	}

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.CallCtx(ctx, "client", addr, simnet.Message{Type: "hold"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := workers.Value(); got < callers {
		t.Fatalf("%d handlers ran at once on %d serve workers", callers, got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+maxIdleWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the burst, %d before it: more than %d workers stayed parked",
				runtime.NumGoroutine(), baseline, maxIdleWorkers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNestedCallsDoNotDeadlock: A's handler calls B and B's handler calls
// A, three levels deep, with calls starting at both ends at once. A reader
// that waited for its handlers would stop reading the very replies those
// handlers wait for.
func TestNestedCallsDoNotDeadlock(t *testing.T) {
	const (
		depth = 3
		pairs = 8
	)
	ta, tb := New(), New()
	defer ta.Close()
	defer tb.Close()
	addrs := freeAddrs(t, 2)
	a, b := addrs[0], addrs[1]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A request's depth is its note's item count; a handler answers a
	// request of depth n > 0 by calling the other peer at depth n - 1.
	levels := make([]string, depth)
	bounce := func(tr *Transport, self, other simnet.Addr) simnet.Handler {
		return simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) (simnet.Message, error) {
			n := len(msg.Payload.(note).Items)
			if n == 0 {
				return simnet.Message{Type: "bottom"}, nil
			}
			return tr.CallCtx(ctx, self, other, simnet.Message{Type: "bounce", Payload: note{Items: levels[:n-1]}})
		})
	}
	ta.Register(a, bounce(ta, a, b))
	tb.Register(b, bounce(tb, b, a))

	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		for _, ends := range []struct {
			tr       *Transport
			from, to simnet.Addr
		}{{ta, a, b}, {tb, b, a}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reply, err := ends.tr.CallCtx(ctx, ends.from, ends.to, simnet.Message{Type: "bounce", Payload: note{Items: levels}})
				if err != nil {
					t.Errorf("%s to %s: %v", ends.from, ends.to, err)
				} else if reply.Type != "bottom" {
					t.Errorf("%s to %s: reply %q, want the innermost handler's", ends.from, ends.to, reply.Type)
				}
			}()
		}
	}
	wg.Wait()
}

// flakyListener fails every Accept, as a process out of descriptors does,
// while failing is set, and otherwise accepts from the listener it wraps.
type flakyListener struct {
	net.Listener
	failing  atomic.Bool
	failures atomic.Int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failing.Load() {
		l.failures.Add(1)
		return nil, fmt.Errorf("accept: %w", syscall.EMFILE)
	}
	return l.Listener.Accept()
}

// TestAcceptErrorBacksOff: a listener whose Accept keeps failing is retried
// a handful of times, not thousands; it serves again once the errors stop;
// and Close ends the accept loop in the middle of a back-off.
func TestAcceptErrorBacksOff(t *testing.T) {
	tr := New()
	defer tr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.failing.Store(true)
	addr := simnet.Addr(ln.Addr().String())
	l := &listener{ln: fl, handler: echo(), done: make(chan struct{}), conns: make(map[*serverConn]struct{})}
	tr.mu.Lock()
	tr.local[addr] = l
	tr.mu.Unlock()
	exited := make(chan struct{})
	go func() {
		tr.serve(l)
		close(exited)
	}()

	time.Sleep(100 * time.Millisecond)
	if n := fl.failures.Load(); n > 10 {
		t.Fatalf("%d failed Accepts in 100 ms, want a handful", n)
	}

	fl.failing.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if reply, err := tr.CallCtx(ctx, "client", addr, simnet.Message{Type: "ping"}); err != nil || reply.Type != "ping.ok" {
		t.Fatalf("call once Accept recovers: %+v, %v", reply, err)
	}

	// Fail again, and wake the loop from the Accept it is blocked in.
	fl.failing.Store(true)
	from := fl.failures.Load()
	kick, err := net.Dial("tcp", string(addr))
	if err != nil {
		t.Fatal(err)
	}
	kick.Close()
	// The seventh failure in a row starts a back-off of 320 ms.
	for fl.failures.Load()-from < 7 {
		select {
		case <-exited:
			t.Fatal("accept loop returned before Close")
		case <-time.After(time.Millisecond):
		}
	}
	start := time.Now()
	tr.Close()
	select {
	case <-exited:
	case <-time.After(200 * time.Millisecond):
		t.Fatal("accept loop still in its back-off 200 ms after Close")
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("Close took %v, waiting out a back-off", waited)
	}
}
