package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// cacheTestNetwork is testNetwork keeping the simnet handle, so tests can
// assert on per-message-type call counts.
func cacheTestNetwork(t testing.TB, peers int, cfg Config) (*Network, *simnet.Network) {
	t.Helper()
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("p", peers); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	ring.Build()
	n, err := NewNetwork(ring, cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n, net
}

// shareCacheCorpus shares a small fixed corpus round-robin across peers.
func shareCacheCorpus(t testing.TB, n *Network) {
	t.Helper()
	docs := []*corpusDoc{
		{"d1", map[string]int{"alpha": 9, "beta": 7, "gamma": 2}},
		{"d2", map[string]int{"alpha": 3, "delta": 8, "epsilon": 5}},
		{"d3", map[string]int{"beta": 6, "delta": 2, "zeta": 4}},
		{"d4", map[string]int{"gamma": 5, "epsilon": 1, "alpha": 2}},
	}
	peers := n.Peers()
	for i, d := range docs {
		if err := n.Share(peers[i%len(peers)].Addr(), doc(d.id, d.tf)); err != nil {
			t.Fatalf("Share %s: %v", d.id, err)
		}
	}
}

type corpusDoc struct {
	id string
	tf map[string]int
}

func TestWarmPostingsCacheZeroRemoteFetches(t *testing.T) {
	n, sim := cacheTestNetwork(t, 8, Config{
		Cache: CacheConfig{Enabled: true, DisableResults: true},
	})
	shareCacheCorpus(t, n)

	query := []string{"alpha", "delta"}
	first, err := n.Search("p0", query, 10)
	if err != nil {
		t.Fatalf("cold search: %v", err)
	}
	cold := sim.Stats().CallsByType[msgGetPostings]
	if cold == 0 {
		t.Fatal("cold search issued no postings fetches; test is vacuous")
	}

	second, err := n.Search("p0", query, 10)
	if err != nil {
		t.Fatalf("warm search: %v", err)
	}
	if got := sim.Stats().CallsByType[msgGetPostings]; got != cold {
		t.Fatalf("warm search issued %d remote postings fetches; want 0", got-cold)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm result diverged:\ncold: %v\nwarm: %v", first, second)
	}
	st := n.PostingsCacheStats()
	if st.Hits != int64(len(query)) {
		t.Fatalf("postings cache hits = %d; want %d", st.Hits, len(query))
	}
}

func TestResultCacheServesRepeats(t *testing.T) {
	n, sim := cacheTestNetwork(t, 8, Config{
		Cache: CacheConfig{Enabled: true, ResultTTL: time.Hour},
	})
	shareCacheCorpus(t, n)

	query := []string{"beta", "gamma"}
	first, err := n.Search("p1", query, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Stats()
	second, err := n.Search("p1", query, 5)
	if err != nil {
		t.Fatal(err)
	}
	after := sim.Stats()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverged: %v vs %v", first, second)
	}
	if d := after.CallsByType[msgGetPostings] - before.CallsByType[msgGetPostings]; d != 0 {
		t.Fatalf("result-cache hit issued %d postings fetches; want 0", d)
	}
	if d := after.CallsByType["chord.next_hop"] - before.CallsByType["chord.next_hop"]; d != 0 {
		t.Fatalf("result-cache hit issued %d chord hops; want 0", d)
	}
	// A recorded hit still feeds the indexing peers' histories.
	if d := after.CallsByType[msgCacheQuery] - before.CallsByType[msgCacheQuery]; d != int64(len(query)) {
		t.Fatalf("result-cache hit recorded the query %d times; want %d", d, len(query))
	}
	if st := n.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("result cache hits = %d; want 1", st.Hits)
	}
	// Mutating the result list a caller got back must not corrupt the cache.
	if len(second) > 0 {
		second[0].Doc = "corrupted"
		third, _ := n.Search("p1", query, 5)
		if !reflect.DeepEqual(first, third) {
			t.Fatal("caller mutation leaked into the result cache")
		}
	}
}

// TestNoStalePostingsAfterMutations is the acceptance test that the cache
// never serves stale postings: a cache-on network must answer exactly like a
// cache-off twin after every kind of index mutation — publish (share),
// unshare, learning-driven re-publication, and an unshare that cannot reach
// an indexing peer — with and without successor replicas. A write invalidates
// only the terms it touched, so each comparison runs with the other terms'
// entries still warm from the round before; wantWarm asserts that they are.
func TestNoStalePostingsAfterMutations(t *testing.T) {
	for _, replicas := range []int{0, 1} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			testNoStalePostingsAfterMutations(t, replicas)
		})
	}
}

func testNoStalePostingsAfterMutations(t *testing.T, replicas int) {
	cacheOff, simOff := cacheTestNetwork(t, 8, Config{InitialTerms: 2, ReplicationFactor: replicas})
	cacheOn, simOn := cacheTestNetwork(t, 8, Config{
		InitialTerms:      2,
		ReplicationFactor: replicas,
		Cache:             CacheConfig{Enabled: true, ResultTTL: time.Hour},
	})
	nets := []*Network{cacheOff, cacheOn}
	// {"omega"} matches nothing: its answer is an empty list, not a nil one,
	// whether the ranker or the result cache produced it.
	surface := [][]string{{"alpha"}, {"beta"}, {"delta"}, {"alpha", "delta"}, {"beta", "gamma", "zeta"}, {"omega"}}
	distinct := make(map[string]bool)
	for _, q := range surface {
		for _, term := range q {
			distinct[term] = true
		}
	}
	surfaceTerms := int64(len(distinct))

	// compare checks the query surface, twice per network so the second round
	// on cacheOn is served from warm caches.
	compare := func(label string, queries [][]string) {
		t.Helper()
		for _, q := range queries {
			var lists []ir.RankedList
			for _, n := range nets {
				for round := 0; round < 2; round++ {
					rl, err := n.Probe("p0", q, 10)
					if err != nil {
						t.Fatalf("%s: probe %v: %v", label, q, err)
					}
					lists = append(lists, rl)
				}
			}
			for i := 1; i < len(lists); i++ {
				if !reflect.DeepEqual(lists[0], lists[i]) {
					t.Fatalf("%s: query %v diverged between cache-on and cache-off:\n%v\nvs\n%v",
						label, q, lists[0], lists[i])
				}
			}
		}
	}
	step := func(label string, wantWarm bool, op func(n *Network) error) {
		t.Helper()
		for _, n := range nets {
			if err := op(n); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		before := cacheOn.PostingsCacheStats().Misses
		compare(label, surface)
		// A mutation that flushed everything would re-fetch every term of the
		// surface once; fewer misses mean untouched terms were served warm.
		if misses := cacheOn.PostingsCacheStats().Misses - before; wantWarm && misses >= surfaceTerms {
			t.Fatalf("%s: %d postings misses over %d terms; no entry survived the mutation", label, misses, surfaceTerms)
		}
	}

	step("share", false, func(n *Network) error {
		shareCacheCorpus(t, n)
		return nil
	})
	step("training", true, func(n *Network) error {
		for _, q := range [][]string{{"zeta", "delta"}, {"gamma"}, {"zeta"}, {"alpha", "gamma"}} {
			for i := 0; i < 3; i++ {
				if _, err := n.Search("p2", q, 10); err != nil {
					return err
				}
			}
		}
		return nil
	})
	step("learning", true, func(n *Network) error {
		_, err := n.LearnAllCtx(context.Background())
		return err
	})
	step("unshare", true, func(n *Network) error {
		return n.Unshare("d2")
	})
	step("reshare", true, func(n *Network) error {
		return n.Share("p3", doc("d2", map[string]int{"alpha": 3, "delta": 8, "epsilon": 5}))
	})

	// Unshare a document while the indexing peer of one of its terms is down,
	// the failure injected at the transport without InvalidateCaches. No
	// msgUnpublish handler runs for that term, and the uncached twin now finds
	// an empty list at the failover peer (or the successor replica): only
	// Unshare's own invalidation keeps the cached list from serving d3 on.
	terms, err := cacheOn.IndexedTerms("d3")
	if err != nil {
		t.Fatal(err)
	}
	var down simnet.Addr
	for _, term := range terms {
		if a := ownerOfTerm(t, cacheOn, term).Addr(); a != "p0" {
			down = a
			break
		}
	}
	if down == "" {
		t.Fatal("every index term of d3 lives on the querying peer; pick another fixture")
	}
	// Other terms held by the failed peer stay cached — the documented
	// staleness window of an unannounced failure — so they are not compared.
	var reachable [][]string
	for _, q := range surface {
		stale := false
		for _, term := range q {
			if !containsTerm(terms, term) && ownerOfTerm(t, cacheOn, term).Addr() == down {
				stale = true
			}
		}
		if !stale {
			reachable = append(reachable, q)
		}
	}
	simOff.Fail(down)
	simOn.Fail(down)
	for _, n := range nets {
		if err := n.Unshare("d3"); err != nil {
			t.Fatalf("unshare with %s down: %v", down, err)
		}
	}
	compare("unshare with indexing peer down", reachable)
}

// TestWriteInvalidatesOnlyItsTerms pins the scope of a write's invalidation:
// sharing, learning and unsharing one document re-fetch the terms that
// document indexes and nothing else.
func TestWriteInvalidatesOnlyItsTerms(t *testing.T) {
	n, sim := cacheTestNetwork(t, 8, Config{
		InitialTerms: 2,
		Cache:        CacheConfig{Enabled: true, DisableResults: true},
	})
	shareCacheCorpus(t, n)

	// probe runs one unrecorded query and reports what it cost the postings
	// cache: misses, and msgGetPostings calls on the wire.
	probe := func(q ...string) (ir.RankedList, int64, int64) {
		t.Helper()
		misses, calls := n.PostingsCacheStats().Misses, sim.Stats().CallsByType[msgGetPostings]
		rl, err := n.Probe("p0", q, 10)
		if err != nil {
			t.Fatalf("probe %v: %v", q, err)
		}
		return rl, n.PostingsCacheStats().Misses - misses, sim.Stats().CallsByType[msgGetPostings] - calls
	}
	has := func(rl ir.RankedList, id index.DocID) bool {
		for _, h := range rl {
			if h.Doc == id {
				return true
			}
		}
		return false
	}
	// check asserts that the corpus terms w1 never indexes are served warm,
	// and that each of its written terms misses once and shows w1 or not.
	check := func(label string, listed bool, written ...string) {
		t.Helper()
		if _, misses, calls := probe("beta", "zeta", "gamma"); misses != 0 || calls != 0 {
			t.Fatalf("%s: query over untouched terms cost %d misses, %d fetches; want 0, 0", label, misses, calls)
		}
		for _, term := range written {
			rl, misses, _ := probe(term)
			if misses != 1 {
				t.Fatalf("%s: written term %q cost %d misses; want 1", label, term, misses)
			}
			if has(rl, "w1") != listed {
				t.Fatalf("%s: %q lists w1 = %v; want %v (%v)", label, term, !listed, listed, rl)
			}
		}
	}

	// Warm every term involved, those nothing indexes yet included.
	probe("beta", "zeta", "gamma")
	probe("omega", "psi", "chi")

	if err := n.Share("p1", doc("w1", map[string]int{"omega": 9, "psi": 7, "chi": 2})); err != nil {
		t.Fatal(err)
	}
	check("share", true, "omega", "psi")
	if _, misses, _ := probe("chi"); misses != 0 {
		t.Fatalf("share: chi, which w1 does not index yet, cost %d misses; want 0", misses)
	}

	// Teach w1 that chi is asked for along with omega; learning publishes it.
	for i := 0; i < 3; i++ {
		if _, err := n.Search("p2", []string{"omega", "chi"}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if changes, err := n.LearnDocCtx(context.Background(), "w1"); err != nil || changes == 0 {
		t.Fatalf("LearnDoc(w1) = %d, %v; want a newly published term", changes, err)
	}
	check("learn", true, "chi")

	if err := n.Unshare("w1"); err != nil {
		t.Fatal(err)
	}
	check("unshare", false, "omega", "psi", "chi")
}

// TestHistoryParityWithCache proves caching is transparent to learning: the
// query histories every indexing peer accumulates — and hence the index
// terms learning selects — are identical with and without the caches.
func TestHistoryParityWithCache(t *testing.T) {
	cacheOff, _ := cacheTestNetwork(t, 8, Config{InitialTerms: 2})
	cacheOn, _ := cacheTestNetwork(t, 8, Config{
		InitialTerms: 2,
		Cache:        CacheConfig{Enabled: true, ResultTTL: time.Hour},
	})
	for _, n := range []*Network{cacheOff, cacheOn} {
		shareCacheCorpus(t, n)
		for _, q := range [][]string{{"alpha", "delta"}, {"alpha", "delta"}, {"beta"}, {"alpha", "delta"}, {"zeta", "beta"}} {
			if _, err := n.Search("p1", q, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	offPeers, onPeers := cacheOff.Peers(), cacheOn.Peers()
	for i := range offPeers {
		if off, on := offPeers[i].HistoryLen(), onPeers[i].HistoryLen(); off != on {
			t.Fatalf("peer %s history length: cache-off %d, cache-on %d", offPeers[i].Addr(), off, on)
		}
	}
	for _, n := range []*Network{cacheOff, cacheOn} {
		if _, err := n.LearnAllCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range cacheOff.Documents() {
		off, _ := cacheOff.IndexedTerms(id)
		on, _ := cacheOn.IndexedTerms(id)
		if !reflect.DeepEqual(off, on) {
			t.Fatalf("learned terms for %s diverged: cache-off %v, cache-on %v", id, off, on)
		}
	}
}

// TestSingleflightOneFetchPerTerm is the acceptance test for coalescing:
// N concurrent identical cold queries issue exactly one remote postings
// fetch per term. How the other N-1 split between joining the flight and
// hitting the filled cache is up to the scheduler; that exactly one miss was
// not coalesced is not.
func TestSingleflightOneFetchPerTerm(t *testing.T) {
	n, sim := cacheTestNetwork(t, 8, Config{
		Cache: CacheConfig{Enabled: true, DisableResults: true},
	})
	shareCacheCorpus(t, n)
	// Probe from a peer other than the term's indexing peer: simnet does not
	// meter self-calls, so a local fetch would make the assertion vacuous.
	ref, _, err := n.Peers()[0].Node().Lookup(chordid.HashKey("epsilon"))
	if err != nil {
		t.Fatal(err)
	}
	from := simnet.Addr("p0")
	if ref.Addr == from {
		from = "p1"
	}
	// Pre-resolve nothing: the caches are cold, the ring is warm.
	base := sim.Stats().CallsByType[msgGetPostings]

	const callers = 12
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = n.Probe(from, []string{"epsilon"}, 10)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	if got := sim.Stats().CallsByType[msgGetPostings] - base; got != 1 {
		t.Fatalf("%d concurrent cold queries issued %d remote fetches; want exactly 1", callers, got)
	}
	st := n.PostingsCacheStats()
	if st.Hits+st.Misses != callers || st.Misses-st.Coalesced != 1 {
		t.Fatalf("stats = %+v; want hits+misses=%d and misses-coalesced=1", st, callers)
	}
}

// TestConcurrentSearchPublishUnshare is the concurrency regression test: many
// goroutines exercise the full mutation and query surface at once; its value
// is running under -race (nothing like this existed before the cache layer).
func TestConcurrentSearchPublishUnshare(t *testing.T) {
	n, _ := cacheTestNetwork(t, 8, Config{
		InitialTerms: 2,
		Cache:        CacheConfig{Enabled: true, ResultTTL: time.Hour},
	})
	peers := n.Peers()
	terms := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("g%d-doc%d", g, i)
				tf := map[string]int{terms[(g+i)%len(terms)]: 5, terms[(g+i+1)%len(terms)]: 3}
				owner := peers[(g+i)%len(peers)].Addr()
				if err := n.Share(owner, doc(id, tf)); err != nil {
					t.Errorf("Share %s: %v", id, err)
					return
				}
				q := []string{terms[i%len(terms)], terms[(i+2)%len(terms)]}
				if _, err := n.Search(owner, q, 5); err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				if i%3 == 0 {
					if err := n.Unshare(index.DocID(id)); err != nil {
						t.Errorf("Unshare %s: %v", id, err)
						return
					}
				}
				if i%7 == 0 {
					if _, err := n.LearnAllCtx(context.Background()); err != nil {
						t.Errorf("LearnAll: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
