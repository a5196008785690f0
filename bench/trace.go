package main

import (
	"sort"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/vtime"
)

// interval is one span reduced to what self-time arithmetic needs: its
// parent's position in the same slice (-1 for a root) and its extent on one
// clock.
type interval struct {
	parent     int
	start, end int64
}

// selfTimes returns, for every interval, its duration minus the part of it
// that its direct children cover. Children are clipped to the parent and
// their union is taken, so siblings that overlap (concurrent fan-out) are
// not subtracted twice and a child that outlives its parent cannot drive the
// result negative.
func selfTimes(iv []interval) []int64 {
	kids := make([][]int, len(iv))
	for i, v := range iv {
		if v.parent >= 0 {
			kids[v.parent] = append(kids[v.parent], i)
		}
	}
	self := make([]int64, len(iv))
	for i, v := range iv {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return iv[ks[a]].start < iv[ks[b]].start })
		covered, edge := int64(0), v.start
		for _, k := range ks {
			s, e := max(iv[k].start, edge), min(iv[k].end, v.end)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[i] = v.end - v.start - covered
	}
	return self
}

// span is one recorded interval of the traced pass, stamped on the wall
// clock (W, ns since the tracer started) and on the deployment's clock (C,
// ns since its epoch — virtual in the route workload, equal to W elsewhere).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	W0     int64  `json:"wall_start_ns"`
	W1     int64  `json:"wall_end_ns"`
	C0     int64  `json:"clock_start_ns"`
	C1     int64  `json:"clock_end_ns"`
}

// spanAgg accumulates every span of one name: how many, their total duration
// and total self time on both clocks.
type spanAgg struct {
	N         int64 `json:"count"`
	Wall      int64 `json:"wall_ns"`
	WallSelf  int64 `json:"wall_self_ns"`
	Clock     int64 `json:"clock_ns"`
	ClockSelf int64 `json:"clock_self_ns"`
}

// keepOps is how many operations' full span trees the span file holds; the
// aggregates cover every operation.
const keepOps = 200

// tracer records spans from outside the module: the harness opens a root
// span around each operation, and the metering transport opens one around
// every call and every handler. The traced pass runs one client at
// Parallelism 1, so exactly one thing happens at a time and the innermost
// open span is always the cause of the next one — parentage is a stack, on
// simnet (handlers run on the caller's goroutine) and on sockets (the handler
// runs on a server goroutine strictly inside the caller's wait) alike.
type tracer struct {
	mu    sync.Mutex
	clk   *vtime.Sim // nil: the deployment runs on the wall clock
	t0    time.Time
	cur   []span // spans of the operation in progress
	open  []int  // stack of indices into cur
	agg   map[string]spanAgg
	kept  [][]span
	roots int
}

func newTracer(clk *vtime.Sim) *tracer {
	return &tracer{clk: clk, t0: time.Now(), agg: make(map[string]spanAgg)}
}

func (t *tracer) stamp() (wall, clock int64) {
	wall = int64(time.Since(t.t0))
	if t.clk == nil {
		return wall, wall
	}
	return wall, int64(t.clk.Elapsed())
}

// begin opens a span under the innermost open one and returns its handle. A
// nil tracer records nothing, so call sites need no tracing-on branch.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	w, c := t.stamp()
	t.cur = append(t.cur, span{Name: name, Parent: parent, W0: w, C0: c})
	id := len(t.cur) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span; closing a root folds the whole operation into the
// aggregates.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur[id].W1, t.cur[id].C1 = t.stamp()
	t.open = t.open[:len(t.open)-1]
	if len(t.open) == 0 {
		t.fold()
	}
}

func (t *tracer) fold() {
	wall := make([]interval, len(t.cur))
	clock := make([]interval, len(t.cur))
	for i, s := range t.cur {
		wall[i] = interval{s.Parent, s.W0, s.W1}
		clock[i] = interval{s.Parent, s.C0, s.C1}
	}
	ws, cs := selfTimes(wall), selfTimes(clock)
	for i, s := range t.cur {
		a := t.agg[s.Name]
		a.N++
		a.Wall += s.W1 - s.W0
		a.WallSelf += ws[i]
		a.Clock += s.C1 - s.C0
		a.ClockSelf += cs[i]
		t.agg[s.Name] = a
	}
	if t.roots < keepOps {
		t.kept = append(t.kept, append([]span(nil), t.cur...))
	}
	t.roots++
	t.cur = t.cur[:0]
}

// take returns the aggregates and the kept span trees gathered so far and
// starts a fresh set, so the set-up spans (share, learn) and the traced pass
// are reported apart.
func (t *tracer) take() (map[string]spanAgg, [][]span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg, kept := t.agg, t.kept
	t.agg = make(map[string]spanAgg)
	t.kept, t.roots = nil, 0
	return agg, kept
}
