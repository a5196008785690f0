package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"testing"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// Allocation ceilings of the core's operations on allocCeilingNetwork's
// deployment, as testing.AllocsPerRun reads them (Go 1.24, linux/amd64). A
// change that allocates more on one of these paths fails
// TestAllocationCeilings; one that allocates less lowers the ceiling with it.
const (
	allocsUncachedSearch = 32
	allocsParallelSearch = 35
	allocsCachedSearch   = 13
	allocsColdCached     = 35
	allocsSweepOneDoc    = 45
	allocsShare          = 54
	allocsUnshare        = 37
)

// allocCeilingNetwork is the deployment the ceilings are read on: 16 peers on
// simnet at the given parallelism, telemetry off, 40 shared documents of 12
// terms each, five of them indexed.
func allocCeilingNetwork(t *testing.T, cache CacheConfig, parallelism int) *Network {
	t.Helper()
	n := testNetwork(t, 16, Config{InitialTerms: 5, TermsPerIteration: 2, MaxIndexTerms: 5, Parallelism: parallelism, Cache: cache})
	for d := 0; d < 40; d++ {
		tf := map[string]int{}
		for k := 0; k < 12; k++ {
			tf[fmt.Sprintf("t%02d", (d+k*7)%30)] = 1 + (d+k)%5
		}
		if err := n.ShareCtx(context.Background(), simnet.Addr(fmt.Sprintf("p%d", d%16)), doc(fmt.Sprintf("d%02d", d), tf)); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestAllocationCeilings holds what one search (uncached, served by the
// postings cache, missing through it, and uncached at Parallelism 2), one
// single-document sweep, one share and one unshare allocate to the ceilings
// above (ROADMAP item 16's gate; `make alloc-guard`).
func TestAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation readings need the full deployment")
	}
	ctx := context.Background()
	query := []string{"t01", "t08", "t15"}
	const runs = 20

	n := allocCeilingNetwork(t, CacheConfig{}, 1)
	uncached := testing.AllocsPerRun(runs, func() {
		if _, err := n.SearchCtx(ctx, "p3", query, 10); err != nil {
			t.Fatal(err)
		}
	})

	// The parallel fan-out's helpers run on goroutines whose descriptors
	// the runtime allocates once and then reuses: searches run first, so
	// that the reading — taken at GOMAXPROCS 1, where a helper waits to
	// run — finds them made. Unwarmed, a fresh process's first reading was
	// one higher now and then.
	par := allocCeilingNetwork(t, CacheConfig{}, 2)
	for range 10 {
		if _, err := par.SearchCtx(ctx, "p3", query, 10); err != nil {
			t.Fatal(err)
		}
	}
	parallel := testing.AllocsPerRun(runs, func() {
		if _, err := par.SearchCtx(ctx, "p3", query, 10); err != nil {
			t.Fatal(err)
		}
	})

	// A sweep of a document none of whose terms a query names: its polls
	// bring nothing new, so every run folds, decides and sends the same.
	quiet := map[string]int{"q1": 4, "q2": 3, "q3": 2, "q4": 2, "q5": 1, "q6": 1}
	if err := n.ShareCtx(ctx, "p5", doc("quiet", quiet)); err != nil {
		t.Fatal(err)
	}
	sweep := testing.AllocsPerRun(runs, func() {
		if _, err := n.LearnDocCtx(ctx, "quiet"); err != nil {
			t.Fatal(err)
		}
	})

	// Share runs+1 copies of one document under fresh IDs, then unshare them
	// in the same order.
	fresh := map[string]int{"s1": 5, "s2": 4, "s3": 3, "s4": 2, "s5": 2, "s6": 1, "s7": 1}
	ids := make([]string, runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%02d", i)
	}
	next := 0
	share := testing.AllocsPerRun(runs, func() {
		if err := n.ShareCtx(ctx, "p7", doc(ids[next], fresh)); err != nil {
			t.Fatal(err)
		}
		next++
	})
	next = 0
	unshare := testing.AllocsPerRun(runs, func() {
		if err := n.Unshare(index.DocID(ids[next])); err != nil {
			t.Fatal(err)
		}
		next++
	})

	c := allocCeilingNetwork(t, CacheConfig{Enabled: true, DisableResults: true}, 1)
	if _, err := c.SearchCtx(ctx, "p3", query, 10); err != nil { // fill the postings cache
		t.Fatal(err)
	}
	cached := testing.AllocsPerRun(runs, func() {
		if _, err := c.SearchCtx(ctx, "p3", query, 10); err != nil {
			t.Fatal(err)
		}
	})
	// The same search with the caches flushed first: every term misses
	// through the postings cache.
	cold := testing.AllocsPerRun(runs, func() {
		c.InvalidateCaches()
		if _, err := c.SearchCtx(ctx, "p3", query, 10); err != nil {
			t.Fatal(err)
		}
	})

	for _, r := range []struct {
		what      string
		got, ceil float64
	}{
		{"uncached search", uncached, allocsUncachedSearch},
		{"uncached search at Parallelism 2", parallel, allocsParallelSearch},
		{"cached search", cached, allocsCachedSearch},
		{"cold cached search", cold, allocsColdCached},
		{"one-document sweep", sweep, allocsSweepOneDoc},
		{"share", share, allocsShare},
		{"unshare", unshare, allocsUnshare},
	} {
		t.Logf("%s: %v allocations (ceiling %v)", r.what, r.got, r.ceil)
		if r.got > r.ceil {
			t.Errorf("%s allocates %v, over its ceiling of %v", r.what, r.got, r.ceil)
		}
	}
}

// Heap ceilings: what one owned document on allocCeilingNetwork's deployment
// and one issuance in an indexing peer's history keep live, as
// TestHeapCeilings reads them — a HeapAlloc delta after runtime.GC (Go 1.24,
// linux/amd64). The readings, 1332.8 and 4.27 bytes, repeat within 0.1 % at
// GOMAXPROCS 1, 2 and 8; the ceilings, earlier readings of 1332.1 and 4.20
// plus 5 %, stand 5 and 3 % above them. An owner that keeps its four per-term maps again reads
// 1 893 and a ring that stores each issuance's seq beside its slot 20.2, and
// both fail.
const (
	heapPerOwnedDoc = 1399
	heapPerIssuance = 4.41
)

// liveHeap collects twice, so that sync.Pool's victim caches are empty too,
// and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// liveHeapGrowth returns the live heap fill adds to the state prepare builds.
// The runtime may start a thread while a collection restarts the world: its
// M and stacks are about 5.5 KB of heap no code under test allocated. So a
// window in which the count of threads grew is measured again on fresh
// state, five windows at most.
func liveHeapGrowth[S any](prepare func() S, fill func(S)) uint64 {
	for try := 1; ; try++ {
		state := prepare()
		threads := pprof.Lookup("threadcreate").Count()
		before := liveHeap()
		fill(state)
		grown := liveHeap() - before
		runtime.KeepAlive(state)
		if pprof.Lookup("threadcreate").Count() == threads || try == 5 {
			return grown
		}
	}
}

// TestHeapCeilings holds the live heap of an owned document — its owner's
// records after a share and a learning sweep, and its postings at the
// indexing peers — and of a history issuance at cap to the ceilings above
// (`make alloc-guard`).
func TestHeapCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("heap readings need the full deployment")
	}
	ctx := context.Background()
	// Documents h000… are shared and learned one by one; the first warm
	// up, so that the goroutine descriptors the runtime keeps for good
	// already exist at the first reading.
	const warm, docs = 20, 200
	batch := make([]*corpus.Document, warm+docs)
	for d := range batch {
		tf := map[string]int{}
		for k := 0; k < 12; k++ {
			tf[fmt.Sprintf("t%02d", (d+k*7)%30)] = 1 + (d+k)%5
		}
		batch[d] = doc(fmt.Sprintf("h%03d", d), tf)
	}
	shareAndLearn := func(n *Network, from, to int) {
		peers := n.Peers()
		for d := from; d < to; d++ {
			if err := n.ShareCtx(ctx, peers[d%len(peers)].Addr(), batch[d]); err != nil {
				t.Fatal(err)
			}
			if _, err := n.LearnDocCtx(ctx, batch[d].ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	var historyCap int
	perDoc := float64(liveHeapGrowth(func() *Network {
		n := allocCeilingNetwork(t, CacheConfig{}, 1)
		historyCap = n.cfg.HistoryCap
		// Queries the sweeps learn from, recorded before the first reading.
		peers := n.Peers()
		for q := 0; q < 300; q++ {
			terms := []string{fmt.Sprintf("t%02d", q%30), fmt.Sprintf("t%02d", (q*11+3)%30)}
			if err := n.InsertQueryCtx(ctx, peers[q%len(peers)].Addr(), terms); err != nil {
				t.Fatal(err)
			}
		}
		shareAndLearn(n, 0, warm)
		return n
	}, func(n *Network) { shareAndLearn(n, warm, warm+docs) })) / docs

	// An indexing peer's empty history, bare of any deployment, filled to
	// the deployment's cap from eight distinct queries, recorded as a
	// get_postings request records them.
	queries := make([][]string, 8)
	for i := range queries {
		queries[i] = []string{fmt.Sprintf("t%02d", i), fmt.Sprintf("t%02d", i+8)}
	}
	perIssuance := float64(liveHeapGrowth(func() *indexingState {
		return &indexingState{ix: index.NewInverted(), replicas: index.NewInverted(), history: history{cap: historyCap}}
	}, func(h *indexingState) {
		for i := range h.history.cap {
			h.cacheQuery(queries[i%len(queries)])
		}
	})) / float64(historyCap)

	for _, r := range []struct {
		what      string
		got, ceil float64
	}{
		{"bytes per owned document", perDoc, heapPerOwnedDoc},
		{"bytes per history issuance", perIssuance, heapPerIssuance},
	} {
		t.Logf("%s: %.2f (ceiling %v)", r.what, r.got, r.ceil)
		if r.got > r.ceil {
			t.Errorf("%s: %.2f, over its ceiling of %v", r.what, r.got, r.ceil)
		}
	}
}
