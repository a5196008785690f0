package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second resolution returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if r.Gauge("g") != g {
		t.Fatal("second resolution returned a different gauge")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("x")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("x")
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded something")
	}

	tr := r.StartTrace("q")
	sp := tr.Root()
	child := sp.StartChild("hop")
	child.Annotate("k", "v")
	child.Finish()
	if sp.SpanCount() != 0 || sp.Name() != "" || sp.Duration() != 0 {
		t.Fatal("nil span not inert")
	}
	tr.Finish()
	if got := tr.Snapshot(); got.Root.Name != "" {
		t.Fatal("nil trace snapshot not empty")
	}
	if r.Traces() != nil {
		t.Fatal("nil registry retains traces")
	}

	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Traces) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	// Exponential buckets give coarse quantiles; require the right ballpark.
	if p50 := h.Quantile(0.5); p50 < 32 || p50 > 80 {
		t.Fatalf("p50 = %d, want within [32, 80]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 64 || p99 > 100 {
		t.Fatalf("p99 = %d, want within [64, 100]", p99)
	}
	if q0 := h.Quantile(-1); q0 != 1 {
		t.Fatalf("clamped q<0 = %d, want min", q0)
	}
	if q1 := h.Quantile(2); q1 != 100 {
		t.Fatalf("clamped q>1 = %d, want max", q1)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := newHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.MaxInt64)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != -5 || h.Max() != math.MaxInt64 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Quantile(0); got != -5 {
		t.Fatalf("q0 = %d", got)
	}
	if got := h.Quantile(1); got != math.MaxInt64 {
		t.Fatalf("q1 = %d", got)
	}
	// Bucket bounds sanity.
	if lo, hi := bucketBounds(0); lo != 0 || hi != 0 {
		t.Fatalf("bucket 0 bounds = [%d, %d]", lo, hi)
	}
	if _, hi := bucketBounds(64); hi != math.MaxInt64 {
		t.Fatalf("top bucket hi = %d, want MaxInt64", hi)
	}
	if lo, hi := bucketBounds(3); lo != 4 || hi != 7 {
		t.Fatalf("bucket 3 bounds = [%d, %d]", lo, hi)
	}
}

// TestConcurrentWriters hammers one registry from many goroutines; run with
// -race this is the concurrency regression test for the whole package.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").Set(int64(i))
				r.Histogram("shared.hist").Observe(int64(i % 128))
				tr := r.StartTrace("trace")
				sp := tr.Root().StartChild("child")
				sp.Annotate("g", "x")
				sp.Finish()
				tr.Finish()
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("shared.hist")
	if h.Count() != goroutines*perG {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 127 {
		t.Fatalf("hist min/max = %d/%d", h.Min(), h.Max())
	}
	if got := len(r.Traces()); got != DefaultTraceCap {
		t.Fatalf("retained traces = %d, want cap %d", got, DefaultTraceCap)
	}
}

func TestTraceTree(t *testing.T) {
	r := NewRegistry()
	tr := r.StartTrace("sprite.search")
	root := tr.Root()
	root.Annotate("query", "chord lookup")
	hop1 := root.StartChild("chord.hop")
	hop1.Annotate("to", "peer3")
	time.Sleep(time.Millisecond)
	hop1.Finish()
	fetch := root.StartChild("sprite.get_postings")
	fetch.Finish()
	fetch.Finish() // double-finish keeps first end time
	tr.Finish()

	if root.Name() != "sprite.search" {
		t.Fatalf("root name = %q", root.Name())
	}
	if got := root.SpanCount(); got != 3 {
		t.Fatalf("span count = %d, want 3", got)
	}
	if root.Duration() <= 0 || hop1.Duration() < time.Millisecond {
		t.Fatalf("durations not recorded: root=%v hop=%v", root.Duration(), hop1.Duration())
	}
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces", len(traces))
	}
	snap := traces[0].Snapshot()
	if len(snap.Root.Children) != 2 || snap.Root.Children[0].Name != "chord.hop" {
		t.Fatalf("snapshot tree wrong: %+v", snap.Root)
	}
	if len(snap.Root.Attrs) != 1 || snap.Root.Attrs[0].Key != "query" {
		t.Fatalf("attrs not exported: %+v", snap.Root.Attrs)
	}
}

func TestTraceCapEviction(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < DefaultTraceCap+5; i++ {
		r.StartTrace("t").Finish()
	}
	if got := len(r.Traces()); got != DefaultTraceCap {
		t.Fatalf("retained %d traces, want %d", got, DefaultTraceCap)
	}
}

func TestSnapshotExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("simnet.calls.chord.next_hop").Add(12)
	r.Counter("simnet.bytes.chord.next_hop").Add(340)
	r.Gauge("peers.alive").Set(16)
	r.Gauge("fanout.inflight").Add(3)
	r.Gauge("fanout.inflight").Add(-3)
	h := r.Histogram("chord.lookup.hops")
	for _, v := range []int64{1, 2, 2, 3, 4} {
		h.Observe(v)
	}
	tr := r.StartTrace("sprite.search")
	tr.Root().StartChild("chord.hop").Finish()
	tr.Finish()

	snap := r.Snapshot()
	if snap.Counters["simnet.calls.chord.next_hop"] != 12 {
		t.Fatalf("counter missing from snapshot: %+v", snap.Counters)
	}
	if snap.Gauges["peers.alive"] != 16 {
		t.Fatalf("gauge missing: %+v", snap.Gauges)
	}
	hs := snap.Histograms["chord.lookup.hops"]
	if hs.Count != 5 || hs.Min != 1 || hs.Max != 4 {
		t.Fatalf("hist snapshot wrong: %+v", hs)
	}
	if len(snap.Traces) != 1 {
		t.Fatalf("traces = %d", len(snap.Traces))
	}
	det := snap.Deterministic()
	if det.GaugePeaks != nil || det.Traces != nil {
		t.Fatalf("Deterministic kept peaks or traces: %+v", det)
	}
	if det.Counters["simnet.calls.chord.next_hop"] != 12 || det.Gauges["peers.alive"] != 16 ||
		det.Histograms["chord.lookup.hops"] != hs {
		t.Fatalf("Deterministic dropped a deterministic field: %+v", det)
	}
	if snap.GaugePeaks["fanout.inflight"] != 3 || len(snap.Traces) != 1 {
		t.Fatalf("Deterministic modified its receiver: %+v", snap)
	}

	var text bytes.Buffer
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"chord.lookup.hops",
		"simnet.bytes.chord.next_hop",
		"peers.alive",
		"trace 1 (2 spans):",
		"sprite.search",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Counters["simnet.calls.chord.next_hop"] != 12 || back.Histograms["chord.lookup.hops"].Count != 5 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.calls.sprite.publish").Add(7)

	req := httptest.NewRequest("GET", "/telemetry", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON body: %v", err)
	}
	if snap.Counters["net.calls.sprite.publish"] != 7 {
		t.Fatalf("handler snapshot wrong: %+v", snap.Counters)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry?format=text", nil))
	if !strings.Contains(rec.Body.String(), "net.calls.sprite.publish") {
		t.Fatalf("text endpoint missing counter:\n%s", rec.Body.String())
	}

	// A nil registry serves empty snapshots rather than crashing.
	var nilReg *Registry
	rec = httptest.NewRecorder()
	nilReg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry", nil))
	if rec.Code != 200 {
		t.Fatalf("nil registry endpoint status = %d", rec.Code)
	}
}

// BenchmarkCounterDisabled measures the nil fast path instrumented code pays
// when no registry is installed.
func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkCounterEnabled measures the atomic-add hot path.
func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkHistogramObserve measures one observation.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 1023))
	}
}

// BenchmarkRegistryResolve measures resolving an instrument by name (call
// sites are expected to cache, but per-message-type lookups take this path).
func BenchmarkRegistryResolve(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("simnet.calls.chord.next_hop")
	}
}
