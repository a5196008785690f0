package fanout

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

func TestMapIndexOrderedResults(t *testing.T) {
	// Items complete in reverse order (later indices sleep less), yet the
	// collected slices must stay index-ordered.
	e := New(8, nil)
	n := 16
	vals, errs := Map(context.Background(), e, "test", n, func(_ context.Context, i int) (int, error) {
		time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
		if i%5 == 0 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i * i, nil
	})
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			if errs[i] == nil || errs[i].Error() != fmt.Sprintf("item %d failed", i) {
				t.Errorf("errs[%d] = %v, want item-specific error", i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v, want nil", i, errs[i])
		}
		if vals[i] != i*i {
			t.Errorf("vals[%d] = %d, want %d", i, vals[i], i*i)
		}
	}
}

func TestMapRespectsLimit(t *testing.T) {
	const limit = 3
	e := New(limit, nil)
	var cur, peak atomic.Int64
	_, errs := Map(context.Background(), e, "test", 50, func(_ context.Context, i int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", p, limit)
	}
}

// The bound is per Map call: items of a nested Map run beside their parents',
// each call keeping its own Limit(). Two levels at limit 3 peak at nine leaves
// in flight — limit², not limit — while the outer call never exceeds three.
func TestNestedMapBoundIsPerCall(t *testing.T) {
	const limit = 3
	e := New(limit, nil)
	var outer, leaves, outerPeak, leafPeak atomic.Int64
	raise := func(peak *atomic.Int64, v int64) {
		for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
		}
	}
	// A leaf holds its slot until limit² leaves are in flight at once, which
	// only a per-call bound allows, or until a deadline passes.
	full := make(chan struct{})
	var once sync.Once
	_, errs := Map(context.Background(), e, "outer", limit+1, func(ctx context.Context, i int) (struct{}, error) {
		raise(&outerPeak, outer.Add(1))
		defer outer.Add(-1)
		_, errs := Map(ctx, e, "inner", limit, func(context.Context, int) (struct{}, error) {
			n := leaves.Add(1)
			raise(&leafPeak, n)
			if n == limit*limit {
				once.Do(func() { close(full) })
			}
			select {
			case <-full:
			case <-time.After(2 * time.Second):
			}
			leaves.Add(-1)
			return struct{}{}, nil
		})
		return struct{}{}, FirstError(errs)
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if p := leafPeak.Load(); p != limit*limit {
		t.Fatalf("nested fan-outs peaked at %d leaves in flight, want %d = limit²", p, limit*limit)
	}
	if p := outerPeak.Load(); p > limit {
		t.Fatalf("outer call peaked at %d items in flight, limit %d", p, limit)
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// falling: helpers of an earlier Map that found no item left may still be
// on their way out.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for steady := 0; steady < 5; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, steady = m, 0
		} else {
			steady++
		}
	}
	return n
}

// A parallel Map's caller is its first worker: limit 3 over three items held
// at a barrier runs two more goroutines than before the call, and limit 3
// over one item runs none.
func TestMapCallerIsFirstWorker(t *testing.T) {
	e := New(3, nil)
	before := settledGoroutines()
	var arrived atomic.Int64
	var during int
	release := make(chan struct{})
	_, errs := Map(context.Background(), e, "test", 3, func(context.Context, int) (struct{}, error) {
		if arrived.Add(1) == 3 {
			during = runtime.NumGoroutine()
			close(release)
		}
		<-release
		return struct{}{}, nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if during-before != 2 {
		t.Fatalf("three items at limit 3 ran %d extra goroutines, want 2", during-before)
	}

	before = settledGoroutines()
	_, errs = Map(context.Background(), e, "test", 1, func(context.Context, int) (struct{}, error) {
		during = runtime.NumGoroutine()
		return struct{}{}, nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if during != before {
		t.Fatalf("one item at limit 3 ran %d extra goroutines, want 0", during-before)
	}
}

// goid returns the calling goroutine's ID, read off the "goroutine N [...]"
// header runtime.Stack writes.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// spin burns about rounds nanoseconds of CPU without touching memory or the
// scheduler.
//
//go:noinline
func spin(rounds int) uint64 {
	x := uint64(rounds)
	for i := 0; i < rounds; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// On one P the helper a limit-2 Map starts is not scheduled while the caller
// runs CPU-only items, so the caller runs all three and returns with its
// helper still to run: it does not wait for a helper that would find nothing.
// A GC can hand the P over mid-call, so a few attempts are allowed.
func TestMapReturnsBeforeHelperRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := New(2, nil)
	caller := goid()
	for attempt := 1; ; attempt++ {
		before := settledGoroutines()
		ran := make([]string, 3)
		_, errs := Map(context.Background(), e, "test", 3, func(_ context.Context, i int) (struct{}, error) {
			_ = spin(300)
			ran[i] = goid()
			return struct{}{}, nil
		})
		if err := FirstError(errs); err != nil {
			t.Fatal(err)
		}
		if runtime.NumGoroutine() == before+1 { // the helper outlived the call
			for i, id := range ran {
				if id != caller {
					t.Errorf("item %d ran on goroutine %s before the helper started, want the caller's %s", i, id, caller)
				}
			}
			return
		}
		if attempt == 10 {
			t.Fatalf("in %d attempts Map never returned before its helper ran", attempt)
		}
	}
}

// Under -race: a caller reads values and errs the moment Map returns, so a
// helper's writes must happen before the return, and a helper that claimed
// nothing must write nothing.
func TestMapResultsVisibleOnReturn(t *testing.T) {
	e := New(2, nil)
	for r := 0; r < 2000; r++ {
		vals, errs := Map(context.Background(), e, "test", 3, func(_ context.Context, i int) (int, error) {
			_ = spin(100)
			return r + i, nil
		})
		for i := range vals {
			if vals[i] != r+i || errs[i] != nil {
				t.Fatalf("round %d: vals[%d], errs[%d] = %d, %v, want %d, nil", r, i, i, vals[i], errs[i], r+i)
			}
		}
	}
}

func TestSequentialModeRunsInline(t *testing.T) {
	// Limit 1 must run items in index order on the calling goroutine.
	e := New(1, nil)
	if e.Limit() != 1 {
		t.Fatalf("Limit() = %d, want 1", e.Limit())
	}
	var order []int
	vals, errs := Map(context.Background(), e, "test", 5, func(_ context.Context, i int) (int, error) {
		order = append(order, i) // safe: inline implies no concurrency
		return i, nil
	})
	for i := range order {
		if order[i] != i {
			t.Fatalf("sequential execution order = %v", order)
		}
	}
	for i := range vals {
		if vals[i] != i || errs[i] != nil {
			t.Fatalf("vals=%v errs=%v", vals, errs)
		}
	}
}

func TestSequentialModeStopsAtCancellation(t *testing.T) {
	e := New(1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	started := 0
	_, errs := Map(ctx, e, "test", 10, func(_ context.Context, i int) (struct{}, error) {
		started++
		if i == 3 {
			cancel()
		}
		return struct{}{}, nil
	})
	if started != 4 {
		t.Errorf("started %d items, want 4 (cancellation after item 3)", started)
	}
	for i := 4; i < 10; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("errs[%d] = %v, want context.Canceled", i, errs[i])
		}
	}
}

func TestParallelCancellationMarksUnstartedItems(t *testing.T) {
	e := New(2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	_, errs := Map(ctx, e, "test", 20, func(_ context.Context, i int) (struct{}, error) {
		ran.Add(1)
		return struct{}{}, nil
	})
	if ran.Load() != 0 {
		t.Errorf("%d items ran under a pre-canceled context", ran.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

func TestDefaultLimitFromGOMAXPROCS(t *testing.T) {
	e := New(0, nil)
	if e.Limit() < 1 {
		t.Fatalf("Limit() = %d, want >= 1", e.Limit())
	}
	if New(-3, nil).Limit() != e.Limit() {
		t.Error("negative limit does not derive the GOMAXPROCS default")
	}
}

func TestNilExecutorLimit(t *testing.T) {
	var e *Executor
	if e.Limit() != 1 {
		t.Fatalf("nil executor Limit() = %d, want 1", e.Limit())
	}
}

func TestTelemetryInflightAndStages(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(4, reg)
	var wg sync.WaitGroup
	wg.Add(1)
	release := make(chan struct{})
	observedInflight := make(chan int64, 1)
	go func() {
		defer wg.Done()
		Map(context.Background(), e, "probe", 4, func(_ context.Context, i int) (struct{}, error) {
			if i == 0 {
				observedInflight <- reg.Gauge("sprite.fanout.inflight").Value()
			}
			<-release
			return struct{}{}, nil
		})
	}()
	if v := <-observedInflight; v < 1 {
		t.Errorf("inflight gauge = %d during execution, want >= 1", v)
	}
	close(release)
	wg.Wait()
	if v := reg.Gauge("sprite.fanout.inflight").Value(); v != 0 {
		t.Errorf("inflight gauge = %d after completion, want 0", v)
	}
	h := reg.Histogram("sprite.fanout.stage.probe_us")
	if h.Count() != 4 {
		t.Errorf("stage histogram count = %d, want 4", h.Count())
	}
}

func TestForEachAndFirstError(t *testing.T) {
	e := New(4, nil)
	errs := ForEach(context.Background(), e, "test", 6, func(_ context.Context, i int) error {
		if i == 2 || i == 4 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	err := FirstError(errs)
	if err == nil || err.Error() != "boom 2" {
		t.Fatalf("FirstError = %v, want boom 2 (index order, not completion order)", err)
	}
	if FirstError(nil) != nil {
		t.Fatal("FirstError(nil) != nil")
	}
}

func TestMapEmpty(t *testing.T) {
	e := New(4, nil)
	vals, errs := Map(context.Background(), e, "test", 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if len(vals) != 0 || len(errs) != 0 {
		t.Fatalf("n=0 returned %d values, %d errors", len(vals), len(errs))
	}
}

// deepStack recurses until about depth KB of stack frames are live, the depth
// a send reaches on its way down to a handler.
//
//go:noinline
func deepStack(depth int) int {
	var frame [1024]byte
	frame[depth%len(frame)] = byte(depth)
	if depth <= 1 {
		return int(frame[1])
	}
	return deepStack(depth-1) + int(frame[depth%len(frame)])
}

var deepSink int

// BenchmarkMapDeepStack is a mixed query's fan-out: limit 2 over three items
// whose bodies each need about 16 KB of stack. A worker on a fresh goroutine
// grows its stack to that depth before the item can run.
func BenchmarkMapDeepStack(b *testing.B) {
	e := New(2, nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vals, _ := Map(ctx, e, "deep", 3, func(context.Context, int) (int, error) {
			return deepStack(16), nil
		})
		deepSink += vals[0]
	}
}

// BenchmarkMapShortItems is a fan-out whose items are cheap next to a helper:
// limit 2 over three items of about 0.3 µs of CPU each, as a query's
// in-process postings fetches are. The caller usually runs all three before
// its helper is scheduled.
func BenchmarkMapShortItems(b *testing.B) {
	e := New(2, nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Map(ctx, e, "short", 3, func(context.Context, int) (struct{}, error) {
			_ = spin(300)
			return struct{}{}, nil
		})
	}
}
