// Package fanout is the concurrent query execution engine's substrate: a
// context-aware, bounded-parallelism executor for fanning independent
// per-item work (DHT lookups, postings fetches, history recordings, poll
// sweeps) out of sequential loops.
//
// SPRITE's §4 query processing hashes each keyword independently — the
// per-term lookups and postings fetches carry no data dependency on each
// other — yet the cost model of a DHT makes each of them a multi-hop round
// trip. Running them one after another makes query latency the *sum* of the
// per-term round trips; fanning them out makes it the *max* (divided by the
// worker bound). ReCord and the BitTorrent-DHT indexing literature both
// observe that bounded concurrent fan-out is what separates toy from
// production lookup rates.
//
// Design constraints, in order:
//
//  1. Determinism. Results and errors are collected into index-ordered
//     slices: values[i] and errs[i] always belong to item i, regardless of
//     completion order. Callers that fold the collected results in index
//     order reproduce the sequential loop's output bit for bit.
//  2. Legacy equivalence. A limit of 1 runs every item inline on the calling
//     goroutine, in order, with no goroutines spawned — the pre-engine
//     sequential path, preserved exactly (including early stopping once the
//     context is done).
//  3. Context awareness. Workers check the context before starting each
//     item; once it is done, unstarted items fail with the context's error
//     instead of touching the network.
//  4. Observability. The executor maintains an inflight gauge and a per-stage
//     latency histogram (microseconds) so the engine's concurrency and each
//     pipeline stage's cost distribution are visible in telemetry.
//
// The bound is per Map call, not per process. An item that itself calls Map
// (a query's fetch fanning out over indexing peers inside a fan-out over
// queries, say) runs up to Limit() items of its own, so nested fan-outs
// multiply: at most Limit()^depth items are in flight at once. This keeps
// nesting free of deadlock — no item ever waits for a slot its ancestors
// hold — and callers that need a global bound flatten their work into one
// Map instead, as the learning sweep's phases do.
package fanout

import (
	"context"
	"runtime"
	"sync"

	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// Executor runs independent items with bounded parallelism. The zero value is
// not usable; create one with New. An Executor is safe for concurrent use and
// holds no pooled goroutines: each Map call spawns (and joins) at most
// Limit() workers, so nested fan-outs compose without deadlock.
type Executor struct {
	limit    int
	reg      *telemetry.Registry
	clock    vtime.Clock
	inflight *telemetry.Gauge

	mu     sync.Mutex
	stages map[string]*telemetry.Histogram
}

// New returns an executor bounded to limit concurrent items. limit <= 0
// derives the bound from GOMAXPROCS; limit 1 is the legacy sequential mode.
// reg may be nil (instrumentation off).
func New(limit int, reg *telemetry.Registry) *Executor {
	return NewClocked(limit, reg, nil)
}

// NewClocked is New with an explicit clock: worker goroutines register with
// it and stage latencies are measured on it. A nil clock is the wall clock
// (New's behavior); virtual-time deployments pass their *vtime.Sim so a
// fan-out's workers participate in deterministic scheduling.
func NewClocked(limit int, reg *telemetry.Registry, clk vtime.Clock) *Executor {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return &Executor{
		limit:    limit,
		reg:      reg,
		clock:    vtime.Default(clk),
		inflight: reg.Gauge("sprite.fanout.inflight"),
		stages:   make(map[string]*telemetry.Histogram),
	}
}

// Limit returns the executor's concurrency bound (always >= 1).
func (e *Executor) Limit() int {
	if e == nil {
		return 1
	}
	return e.limit
}

// Parallel reports whether the executor actually fans out (limit > 1).
func (e *Executor) Parallel() bool { return e.Limit() > 1 }

// stageHist resolves (and caches) the latency histogram for a pipeline
// stage. Stage names land in telemetry as "sprite.fanout.stage.<name>_us".
func (e *Executor) stageHist(stage string) *telemetry.Histogram {
	if e == nil || e.reg == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.stages[stage]
	if !ok {
		h = e.reg.Histogram("sprite.fanout.stage." + stage + "_us")
		e.stages[stage] = h
	}
	return h
}

// run executes one item with instrumentation. Stage latency is measured on
// the executor's clock, so under virtual time the histograms report virtual
// (deterministic) durations; with no histogram to feed, the clock is not read.
func (e *Executor) run(hist *telemetry.Histogram, fn func()) {
	e.inflight.Add(1)
	if hist == nil {
		fn()
	} else {
		start := e.clock.Now()
		fn()
		hist.Observe(e.clock.Now().Sub(start).Microseconds())
	}
	e.inflight.Add(-1)
}

// Map runs fn(ctx, i) for every i in [0, n) with at most e.Limit() of this
// call's items in flight, and returns the results index-ordered: values[i] and
// errs[i] are item i's outcome no matter when it completed. stage names the
// pipeline stage for the per-stage latency histogram. The bound is this
// call's alone: an fn that calls Map again gets Limit() more (see the package
// documentation).
//
// Context contract: an item observed to start after ctx is done is not run;
// its errs[i] is ctx.Err(). With limit 1 the items run inline in index order
// (the legacy sequential path) and every item after the cancellation point is
// marked with the context error without being started.
func Map[T any](ctx context.Context, e *Executor, stage string, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	values := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return values, errs
	}
	hist := e.stageHist(stage)

	workers := e.Limit()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cerr := ctx.Err(); cerr != nil {
				errs[i] = cerr
				continue
			}
			i := i
			e.run(hist, func() { values[i], errs[i] = fn(ctx, i) })
		}
		return values, errs
	}

	// Workers pull indices from a shared cursor; each slot in values/errs is
	// written by exactly one worker, so no result-side locking is needed.
	// GoGroup registers the workers with the executor's clock (a plain
	// spawn-and-wait under the wall clock): under virtual time the caller's
	// runnable slot transfers to the group, so a fan-out never stalls the
	// scheduler while its workers sleep through simulated latency.
	var (
		mu   sync.Mutex
		next int
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	e.clock.GoGroup(workers, func(int) {
		for {
			i, ok := take()
			if !ok {
				return
			}
			if cerr := ctx.Err(); cerr != nil {
				errs[i] = cerr
				continue
			}
			e.run(hist, func() { values[i], errs[i] = fn(ctx, i) })
		}
	})
	return values, errs
}

// ForEach is Map for side-effect-only items: it returns the index-ordered
// error slice alone.
func ForEach(ctx context.Context, e *Executor, stage string, n int, fn func(ctx context.Context, i int) error) []error {
	_, errs := Map(ctx, e, stage, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return errs
}

// FirstError returns the first non-nil error in index order — the
// deterministic analogue of a sequential loop's "remember the first failure
// and keep going" idiom.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
