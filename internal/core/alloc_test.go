package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// Allocation ceilings of the core's operations on allocCeilingNetwork's
// deployment, as testing.AllocsPerRun reads them (Go 1.24, linux/amd64). A
// change that allocates more on one of these paths fails
// TestAllocationCeilings; one that allocates less lowers the ceiling with it.
const (
	allocsUncachedSearch = 32
	allocsCachedSearch   = 13
	allocsColdCached     = 35
	allocsSweepOneDoc    = 46
	allocsShare          = 58
	allocsUnshare        = 37
)

// allocCeilingNetwork is the deployment the ceilings are read on: 16 peers on
// simnet, Parallelism 1, telemetry off, 40 shared documents of 12 terms each,
// five of them indexed.
func allocCeilingNetwork(t *testing.T, cache CacheConfig) *Network {
	t.Helper()
	n := testNetwork(t, 16, Config{InitialTerms: 5, TermsPerIteration: 2, MaxIndexTerms: 5, Parallelism: 1, Cache: cache})
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
// postings cache, missing through it), one single-document sweep, one share
// and one unshare allocate to the ceilings above (ROADMAP item
// 16's gate; `make alloc-guard`).
func TestAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation readings need the full deployment")
	}
	ctx := context.Background()
	query := []string{"t01", "t08", "t15"}
	const runs = 20

	n := allocCeilingNetwork(t, CacheConfig{})
	uncached := testing.AllocsPerRun(runs, func() {
		if _, err := n.SearchCtx(ctx, "p3", query, 10); err != nil {
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

	c := allocCeilingNetwork(t, CacheConfig{Enabled: true, DisableResults: true})
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
