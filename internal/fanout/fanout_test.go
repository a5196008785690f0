package fanout

import (
	"context"
	"errors"
	"fmt"
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

func TestSequentialModeRunsInline(t *testing.T) {
	// Limit 1 must run items in index order on the calling goroutine.
	e := New(1, nil)
	if e.Parallel() {
		t.Fatal("limit-1 executor claims to be parallel")
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
