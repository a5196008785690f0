package vtime

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWallSleep(t *testing.T) {
	if err := Wall.Sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if err := Wall.Sleep(context.Background(), -1); err != nil {
		t.Fatalf("Sleep(-1): %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Wall.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("canceled Sleep: got %v, want context.Canceled", err)
	}
}

func TestWallTimerAndGroup(t *testing.T) {
	var sum atomic.Int64
	Wall.GoGroup(8, 8, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 28 {
		t.Fatalf("GoGroup sum = %d, want 28", got)
	}
	ctx, cancel := Wall.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("WithTimeout context has no deadline")
	}
	if Default(nil) != Wall {
		t.Fatal("Default(nil) != Wall")
	}
	if Default(NewSim()) == Wall {
		t.Fatal("Default(sim) should return the sim")
	}
}

// TestSimFastPath drives the sole-runnable-sleeper path: no parking, exact
// advancement, reproducible Now.
func TestSimFastPath(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		if !s.Now().Equal(Epoch) {
			t.Errorf("start = %v, want %v", s.Now(), Epoch)
		}
		for i := 0; i < 1000; i++ {
			if err := s.Sleep(context.Background(), time.Millisecond); err != nil {
				t.Fatalf("Sleep: %v", err)
			}
		}
		if got := s.Elapsed(); got != time.Second {
			t.Errorf("Elapsed = %v, want 1s", got)
		}
		if got := s.Now(); !got.Equal(Epoch.Add(time.Second)) {
			t.Errorf("Now = %v, want %v", got, Epoch.Add(time.Second))
		}
	})
}

// TestSimOrdering checks that concurrent virtual sleeps wake in timestamp
// order and that equal wall work costs zero virtual time.
func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var mu sync.Mutex
	var order []string
	s.Run(func() {
		s.GoGroup(3, 3, func(i int) {
			// Sleep i+1 units twice: wake order must be strictly by
			// virtual timestamp regardless of goroutine scheduling.
			for round := 0; round < 2; round++ {
				if err := s.Sleep(context.Background(), time.Duration(i+1)*time.Millisecond); err != nil {
					t.Errorf("Sleep: %v", err)
					return
				}
				mu.Lock()
				order = append(order, fmt.Sprintf("g%d@%v", i, s.Elapsed()))
				mu.Unlock()
			}
		})
	})
	// At 2ms two events tie: g1's first wake was enqueued (lower sequence)
	// before g0's second sleep existed, so g1 fires first.
	want := []string{"g0@1ms", "g1@2ms", "g0@2ms", "g2@3ms", "g1@4ms", "g2@6ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	if got := s.Elapsed(); got != 6*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 6ms", got)
	}
}

// goid returns the calling goroutine's ID, read off the "goroutine N [...]"
// header runtime.Stack writes.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// settledGoroutines returns the goroutine count once it has stopped
// falling: helpers of an earlier group that found the cursor drained may
// still be on their way out.
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

// TestGoGroupCallerRunsFirstItem checks GoGroup's contract on both clocks:
// every index runs exactly once, fn(0) on the calling goroutine, on at most
// min(workers, n) goroutines, and n <= 0 calls nothing. fn(0) reads the
// clock, as an item timed on it does, until the group's helpers have
// started, so they join while the caller drains the cursor and closes the
// group; on Sim each read takes the group lock a joining helper needs.
func TestGoGroupCallerRunsFirstItem(t *testing.T) {
	check := func(t *testing.T, c Clock, p *pile) {
		caller := goid()
		for _, tc := range []struct{ workers, n, most int }{
			{4, 4, 4}, {2, 3, 2}, {3, 7, 3}, {8, 2, 2}, {1, 5, 1}, {0, 3, 1},
		} {
			for round := 0; round < 300; round++ {
				runs := make([]atomic.Int32, tc.n)
				var mu sync.Mutex
				ran := map[string]bool{}
				c.GoGroup(tc.workers, tc.n, func(i int) {
					runs[i].Add(1)
					id := goid()
					if i == 0 {
						if id != caller {
							t.Errorf("fn(0) ran on goroutine %s, want the caller's %s", id, caller)
						}
						for k := 0; k < 1000 && p.unstarted.Load() > 0; k++ {
							c.Now()
						}
					}
					mu.Lock()
					ran[id] = true
					mu.Unlock()
				})
				for i := range runs {
					if r := runs[i].Load(); r != 1 {
						t.Fatalf("GoGroup(%d, %d): fn(%d) ran %d times by the return, want once", tc.workers, tc.n, i, r)
					}
				}
				if len(ran) > tc.most {
					t.Fatalf("GoGroup(%d, %d) ran items on %d goroutines, want at most %d", tc.workers, tc.n, len(ran), tc.most)
				}
			}
		}
		for _, n := range []int{0, -1} {
			c.GoGroup(4, n, func(i int) { t.Errorf("GoGroup(4, %d) called fn(%d)", n, i) })
		}
	}
	t.Run("Wall", func(t *testing.T) { check(t, Wall, &Wall.(*wallClock).pile) })
	t.Run("Sim", func(t *testing.T) {
		s := NewSim()
		s.Run(func() { check(t, s, &s.pile) })
	})
}

// TestWallGoGroupRunsEveryItemBeforeReturn races a wall group's helpers
// against its caller at the end of the cursor: eight items of a few clock
// reads each, in 50 000 groups. A helper that takes an index before it joins
// can lose that race — the caller drains the cursor, closes the group and
// returns while the helper waits for the group lock, and the item runs late
// or never. At GOMAXPROCS 2 that mutant fails this test in 60 of 60 runs;
// at GOMAXPROCS 1 a helper never runs beside its caller, and it passes.
func TestWallGoGroupRunsEveryItemBeforeReturn(t *testing.T) {
	const groups, n = 50000, 8
	runs := make([]atomic.Int32, n)
	for r := range groups {
		for i := range runs {
			runs[i].Store(0)
		}
		Wall.GoGroup(n, n, func(i int) {
			runs[i].Add(1)
			for range 1 + (r+i)%3 {
				Wall.Now()
			}
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("group %d: fn(%d) ran %d times by the return, want once", r, i, got)
			}
		}
	}
}

// A caller that outruns the scheduler leaves a helper behind per group; on
// one P a tight loop would pile them up until it is preempted. Once
// maxUnstartedHelpers wait, the caller yields and they drain: one caller's
// loop never runs more goroutines than that beyond the baseline, plus a few
// the runtime may start, and the clock's count returns to 0.
func TestGoGroupYieldsToPiledUpHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check := func(t *testing.T, c Clock, p *pile) {
		base := settledGoroutines()
		peak := base
		for r := 0; r < 5000; r++ {
			c.GoGroup(2, 3, func(int) {})
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
		}
		if limit := base + maxUnstartedHelpers + 4; peak > limit {
			t.Fatalf("a tight loop of groups peaked at %d goroutines, want at most %d (baseline %d + cap %d + 4)", peak, limit, base, maxUnstartedHelpers)
		}
		settledGoroutines()
		if u := p.unstarted.Load(); u != 0 {
			t.Fatalf("%d helpers still counted unstarted after they all ran", u)
		}
	}
	t.Run("Wall", func(t *testing.T) { check(t, Wall, &Wall.(*wallClock).pile) })
	t.Run("Sim", func(t *testing.T) {
		s := NewSim()
		s.Run(func() { check(t, s, &s.pile) })
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.workers != 0 {
			t.Fatalf("%d goroutines still registered after the helpers drained", s.workers)
		}
	})
}

// TestSimGoGroupHandoff checks the caller's slot: virtual time keeps
// advancing while the caller waits for its helpers, a caller that finishes
// last stays registered, and the caller resumes with a consistent worker
// count (a later group still works). Which worker takes which item off the
// cursor depends on the host's scheduler; Elapsed must not.
func TestSimGoGroupHandoff(t *testing.T) {
	s := NewSim()
	registered := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.workers
	}
	sleep := func(d time.Duration) { _ = s.Sleep(context.Background(), d) }
	s.Run(func() {
		step := func(name string, want time.Duration) {
			t.Helper()
			if got := s.Elapsed(); got != want {
				t.Errorf("after %s: Elapsed = %v, want %v", name, got, want)
			}
			if got := registered(); got != 1 {
				t.Errorf("after %s: %d registered goroutines, want the caller alone", name, got)
			}
		}
		// Every item sleeps, so time holds until each helper has started and
		// taken one: a worker per item.
		s.GoGroup(4, 4, func(i int) { sleep(time.Duration(i) * time.Millisecond) })
		step("group 1", 3*time.Millisecond)
		s.GoGroup(2, 2, func(i int) { sleep(time.Millisecond) })
		step("group 2", 4*time.Millisecond)

		// fn(0) sleeps longest: the caller finishes last and returns still
		// registered, the helpers gone.
		s.GoGroup(3, 3, func(i int) {
			sleep(time.Duration(3-i) * time.Millisecond)
			if i == 0 {
				if got := registered(); got != 1 {
					t.Errorf("caller finished last beside %d registered goroutines, want itself alone", got)
				}
			}
		})
		step("caller-last group", 7*time.Millisecond)

		// fn(0) sleeps for no time, which lets both helpers start and take
		// the other items, and returns while they still hold them: the caller
		// finds the cursor drained and waits unregistered, and the last
		// helper hands its slot back.
		s.GoGroup(3, 3, func(i int) {
			if i == 0 {
				sleep(0)
				return
			}
			sleep(time.Duration(i) * time.Millisecond)
			if i == 1 {
				if got := registered(); got != 2 {
					t.Errorf("caller waiting: %d registered goroutines, want the 2 helpers", got)
				}
			}
		})
		step("caller-first group", 9*time.Millisecond)

		// Nested groups: a helper lends its slot to its own group.
		s.GoGroup(2, 2, func(i int) {
			s.GoGroup(2, 2, func(j int) { sleep(time.Millisecond) })
		})
		step("nested group", 10*time.Millisecond)

		// A group opened inside fn(0) runs on the caller too, its first item
		// included, while the outer helper sleeps beside it.
		caller := goid()
		s.GoGroup(2, 2, func(i int) {
			if i == 1 {
				sleep(time.Millisecond)
				return
			}
			s.GoGroup(2, 2, func(j int) {
				if j == 0 && goid() != caller {
					t.Error("nested fn(0) left the caller's goroutine")
				}
				sleep(time.Duration(j+2) * time.Millisecond)
			})
		})
		step("group nested in fn(0)", 13*time.Millisecond)

		// Seven 1 ms items on three workers: each worker that wakes takes the
		// next item, so they run in three rounds whoever takes which.
		var runs [7]atomic.Int32
		s.GoGroup(3, 7, func(i int) {
			runs[i].Add(1)
			sleep(time.Millisecond)
		})
		for i := range runs {
			if r := runs[i].Load(); r != 1 {
				t.Errorf("cursor group: fn(%d) ran %d times, want once", i, r)
			}
		}
		step("cursor group", 16*time.Millisecond)

		// Eight workers over two items start one helper, registered beside
		// the caller before either item runs.
		s.GoGroup(8, 2, func(i int) {
			if got := registered(); got != 2 {
				t.Errorf("capped group: %d registered goroutines, want the caller and 1 helper", got)
			}
			sleep(2 * time.Millisecond)
		})
		step("capped group", 18*time.Millisecond)

		// CPU-only items: the caller may drain the cursor and return while
		// its helpers are still registered but unscheduled. They hold
		// virtual time until they start, find the cursor drained and
		// deregister, so the next sleep advances exactly its own length.
		s.GoGroup(3, 3, func(int) {})
		sleep(time.Millisecond)
		step("drained group", 19*time.Millisecond)
	})
}

// TestSimWithTimeout checks virtual deadlines: Deadline() reports a virtual
// instant, expiry cancels a virtual sleep at the exact virtual time, and
// early cancel removes the event.
func TestSimWithTimeout(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		ctx, cancel := s.WithTimeout(context.Background(), 3*time.Millisecond)
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok || !dl.Equal(Epoch.Add(3*time.Millisecond)) {
			t.Fatalf("Deadline = %v,%v, want %v", dl, ok, Epoch.Add(3*time.Millisecond))
		}
		err := s.Sleep(ctx, 10*time.Millisecond)
		if err != context.DeadlineExceeded {
			t.Fatalf("Sleep under expired deadline: err = %v", err)
		}
		if got := s.Elapsed(); got != 3*time.Millisecond {
			t.Fatalf("deadline fired at %v, want 3ms", got)
		}
		if ctx.Err() != context.DeadlineExceeded {
			t.Fatalf("ctx.Err = %v", ctx.Err())
		}

		// Early cancel: the deadline event must not fire later.
		ctx2, cancel2 := s.WithTimeout(context.Background(), time.Millisecond)
		cancel2()
		if ctx2.Err() != context.Canceled {
			t.Fatalf("ctx2.Err = %v", ctx2.Err())
		}
		if err := s.Sleep(ctx2, time.Millisecond); err != context.Canceled {
			t.Fatalf("Sleep on canceled ctx: %v", err)
		}
		if got := s.Elapsed(); got != 3*time.Millisecond {
			t.Fatalf("canceled deadline advanced time: Elapsed = %v", got)
		}

		// Parent cancellation propagates.
		parent, pcancel := context.WithCancel(context.Background())
		ctx3, cancel3 := s.WithTimeout(parent, time.Hour)
		defer cancel3()
		pcancel()
		<-ctx3.Done()
		if ctx3.Err() != context.Canceled {
			t.Fatalf("ctx3.Err = %v", ctx3.Err())
		}
	})
}

// TestSimCancelSweep checks that a parked sleeper whose context is canceled
// by another goroutine's virtual action wakes deterministically.
func TestSimCancelSweep(t *testing.T) {
	s := NewSim()
	s.Run(func() {
		ctx, cancel := context.WithCancel(context.Background())
		var sleepErr error
		s.GoGroup(2, 2, func(i int) {
			if i == 0 {
				sleepErr = s.Sleep(ctx, time.Hour)
				return
			}
			_ = s.Sleep(context.Background(), time.Millisecond)
			cancel()
			_ = s.Sleep(context.Background(), time.Millisecond)
		})
		if sleepErr != context.Canceled {
			t.Fatalf("parked sleeper err = %v, want context.Canceled", sleepErr)
		}
		if got := s.Elapsed(); got != 2*time.Millisecond {
			t.Fatalf("Elapsed = %v, want 2ms (the 1h sleep must not advance time)", got)
		}
	})
}

// TestSimDeterminism runs a randomized multi-goroutine workload twice with
// the same seed and requires bit-identical timelines.
func TestSimDeterminism(t *testing.T) {
	runOnce := func() (time.Duration, []string) {
		s := NewSim()
		var mu sync.Mutex
		var trace []string
		s.Run(func() {
			s.GoGroup(8, 8, func(i int) {
				rng := rand.New(rand.NewSource(int64(i) * 7919))
				for step := 0; step < 50; step++ {
					d := time.Duration(rng.Intn(5)+1) * time.Millisecond
					_ = s.Sleep(context.Background(), d)
					mu.Lock()
					trace = append(trace, fmt.Sprintf("%d:%v", i, s.Elapsed()))
					mu.Unlock()
				}
			})
		})
		return s.Elapsed(), trace
	}
	e1, t1 := runOnce()
	e2, t2 := runOnce()
	if e1 != e2 {
		t.Fatalf("Elapsed differs: %v vs %v", e1, e2)
	}
	// Wake timestamps must agree run-to-run; order within one virtual
	// instant is the only schedule-dependent freedom, so compare sorted.
	seen := map[string]int{}
	for _, e := range t1 {
		seen[e]++
	}
	for _, e := range t2 {
		seen[e]--
	}
	for e, n := range seen {
		if n != 0 {
			t.Fatalf("timeline entry %q count differs by %d between runs", e, n)
		}
	}
}

func TestSimSleepUnregisteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep without registration did not panic")
		}
	}()
	_ = NewSim().Sleep(context.Background(), time.Millisecond)
}

func TestSimDeadlockPanics(t *testing.T) {
	s := NewSim()
	panicked := make(chan any, 1)
	done := make(chan struct{})
	detach := s.Attach()
	go func() {
		defer detach()
		defer close(done)
		defer func() { panicked <- recover() }()
		// A registered goroutine blocked with no event pending: advancing
		// must detect the stall.
		s.mu.Lock()             // simulate a missing event: block with blocked==workers
		s.blocked++             // (white-box: a real caller gets here by wrapping a
		cb := s.advanceLocked() // channel wait in a virtual wait incorrectly)
		s.mu.Unlock()
		_ = cb
	}()
	<-done
	if p := <-panicked; p == nil {
		t.Fatal("expected deadlock panic")
	}
}

// BenchmarkSimSleepFastPath measures the sole-runnable sleeper cost — the
// per-hop price of the scale experiment.
func BenchmarkSimSleepFastPath(b *testing.B) {
	s := NewSim()
	ctx := context.Background()
	s.Run(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Sleep(ctx, time.Microsecond)
		}
	})
}
