package core

import (
	"context"
	"errors"
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
		if err := n.ShareCtx(context.Background(), peers[i%len(peers)].Addr(), doc(d.id, d.tf)); err != nil {
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
	first, err := n.SearchCtx(context.Background(), "p0", query, 10)
	if err != nil {
		t.Fatalf("cold search: %v", err)
	}
	cold := sim.Stats().CallsByType[msgGetPostings]
	if cold == 0 {
		t.Fatal("cold search issued no postings fetches; test is vacuous")
	}

	second, err := n.SearchCtx(context.Background(), "p0", query, 10)
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

	// Expansion fetches through the same stage: once its expansion terms are
	// warm too, a repeated expansion sends no postings fetch at all.
	rl, exp, err := n.SearchExpanded("p0", query, 10, ExpandOptions{})
	if err != nil || len(exp) == 0 {
		t.Fatalf("cold expansion: terms %v, err %v", exp, err)
	}
	cold = sim.Stats().CallsByType[msgGetPostings]
	rl2, exp2, err := n.SearchExpanded("p0", query, 10, ExpandOptions{})
	if err != nil {
		t.Fatalf("warm expansion: %v", err)
	}
	if got := sim.Stats().CallsByType[msgGetPostings]; got != cold {
		t.Fatalf("warm expansion issued %d remote postings fetches; want 0", got-cold)
	}
	if !reflect.DeepEqual(rl, rl2) || !reflect.DeepEqual(exp, exp2) {
		t.Fatalf("warm expansion diverged:\ncold: %v %v\nwarm: %v %v", rl, exp, rl2, exp2)
	}
}

func TestResultCacheServesRepeats(t *testing.T) {
	n, sim := cacheTestNetwork(t, 8, Config{
		Cache: CacheConfig{Enabled: true, ResultTTL: time.Hour},
	})
	shareCacheCorpus(t, n)

	query := []string{"beta", "gamma"}
	first, err := n.SearchCtx(context.Background(), "p1", query, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Stats()
	second, err := n.SearchCtx(context.Background(), "p1", query, 5)
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
		third, _ := n.SearchCtx(context.Background(), "p1", query, 5)
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
					rl, err := n.ProbeCtx(context.Background(), "p0", q, 10)
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
				if _, err := n.SearchCtx(context.Background(), "p2", q, 10); err != nil {
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
		return n.ShareCtx(context.Background(), "p3", doc("d2", map[string]int{"alpha": 3, "delta": 8, "epsilon": 5}))
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
		rl, err := n.ProbeCtx(context.Background(), "p0", q, 10)
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

	if err := n.ShareCtx(context.Background(), "p1", doc("w1", map[string]int{"omega": 9, "psi": 7, "chi": 2})); err != nil {
		t.Fatal(err)
	}
	check("share", true, "omega", "psi")
	if _, misses, _ := probe("chi"); misses != 0 {
		t.Fatalf("share: chi, which w1 does not index yet, cost %d misses; want 0", misses)
	}

	// Teach w1 that chi is asked for along with omega; learning publishes it.
	for i := 0; i < 3; i++ {
		if _, err := n.SearchCtx(context.Background(), "p2", []string{"omega", "chi"}, 10); err != nil {
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
			if _, err := n.SearchCtx(context.Background(), "p1", q, 10); err != nil {
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

// callsDelta is after's per-type counts minus before's, types that did not
// move left out.
func callsDelta(after, before map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for typ, v := range after {
		if v != before[typ] {
			d[typ] = v - before[typ]
		}
	}
	return d
}

// TestCacheMissRecordsInItsFetch: with the postings cache on, a cold search
// sends the get_postings its cache-off twin sends, which record the query at
// the holders, and no sprite.cache_query; a search served from the cache
// sends one cache_query per term and no get_postings; N concurrent cold
// searches of one term send N recording messages between them, each search
// either fetching or recording; and every peer's history is the cache-off
// twin's.
func TestCacheMissRecordsInItsFetch(t *testing.T) {
	on, sim := cacheTestNetwork(t, 8, Config{Cache: CacheConfig{Enabled: true, DisableResults: true}})
	off, offSim := cacheTestNetwork(t, 8, Config{})
	cold, shared := []string{"alpha", "delta"}, []string{"epsilon"}
	// Search from a peer that holds none of the terms: simnet does not meter
	// self-calls.
	holders := map[simnet.Addr]bool{}
	for _, term := range append(append([]string(nil), cold...), shared...) {
		at, _ := on.Ring().Owner(chordid.HashKey(term))
		holders[at.Addr()] = true
	}
	var from simnet.Addr
	for _, p := range on.Peers() {
		if !holders[p.Addr()] {
			from = p.Addr()
			break
		}
	}
	if from == "" {
		t.Fatal("every peer holds one of the terms")
	}
	const callers = 12
	for _, n := range []*Network{on, off} {
		shareCacheCorpus(t, n)
	}
	delta := func(sim *simnet.Network, run func()) (fetches, records int64) {
		before := sim.Stats().CallsByType
		run()
		after := sim.Stats().CallsByType
		return after[msgGetPostings] - before[msgGetPostings], after[msgCacheQuery] - before[msgCacheQuery]
	}
	search := func(n *Network, q []string) {
		if _, err := n.SearchCtx(context.Background(), from, q, 10); err != nil {
			t.Error(err)
		}
	}

	want, _ := delta(offSim, func() { search(off, cold) })
	if fetches, records := delta(sim, func() { search(on, cold) }); fetches != want || records != 0 {
		t.Fatalf("cold search: %d get_postings and %d cache_query, want %d and 0", fetches, records, want)
	}
	if fetches, records := delta(sim, func() { search(on, cold) }); fetches != 0 || records != int64(len(cold)) {
		t.Fatalf("warm search: %d get_postings and %d cache_query, want 0 and %d", fetches, records, len(cold))
	}
	fetches, records := delta(sim, func() {
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				search(on, shared)
			}()
		}
		wg.Wait()
	})
	if fetches < 1 || fetches+records != callers {
		t.Fatalf("%d concurrent cold searches: %d get_postings and %d cache_query, want at least one fetch and %d in all",
			callers, fetches, records, callers)
	}

	search(off, cold)
	for i := 0; i < callers; i++ {
		search(off, shared)
	}
	offPeers, onPeers := off.Peers(), on.Peers()
	for i := range offPeers {
		if o, c := offPeers[i].HistoryLen(), onPeers[i].HistoryLen(); o != c {
			t.Fatalf("peer %s history length: cache-off %d, cache-on %d", offPeers[i].Addr(), o, c)
		}
	}
	if !reflect.DeepEqual(off.histories(), on.histories()) {
		t.Fatal("histories differ between the cache-off and cache-on twins")
	}
}

// TestFailedFetchNotCached: a term whose fetch failed is skipped and not
// cached, so the next search fetches it again and ranks it.
func TestFailedFetchNotCached(t *testing.T) {
	n, sim := cacheTestNetwork(t, 8, Config{Cache: CacheConfig{Enabled: true, DisableResults: true}})
	shareCacheCorpus(t, n)
	holder := ownerOfTerm(t, n, "epsilon").Addr()
	from := searcherAvoiding(t, n, holder)
	q := []string{"epsilon"}

	sim.DropCalls(holder, 1)
	if _, err := n.SearchCtx(context.Background(), from, q, 10); !errors.Is(err, ErrPartialResults) {
		t.Fatalf("search through a dropped fetch returned %v; want partial results", err)
	}
	if st := n.PostingsCacheStats(); st.Stores != 0 {
		t.Fatalf("failed fetch stored %d entries; want 0", st.Stores)
	}
	fetches := sim.Stats().CallsByType[msgGetPostings]
	rl, err := n.SearchCtx(context.Background(), from, q, 10)
	if err != nil || len(rl) == 0 {
		t.Fatalf("retry = %v, %v; want a ranking", rl, err)
	}
	if got := sim.Stats().CallsByType[msgGetPostings] - fetches; got != 1 {
		t.Fatalf("retry sent %d get_postings; want 1", got)
	}
}

// TestColdCachedSearchBillsAsUncached: the postings cache is a lookup in
// front of the one fetch path, so a search all of whose terms miss sends
// exactly the messages and bytes, type by type, that the same search sends
// with the cache off — one six-term search from every peer, the caches
// flushed before each, on 8, 16 and 64 peers.
func TestColdCachedSearchBillsAsUncached(t *testing.T) {
	query := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, peers := range []int{8, 16, 64} {
		bill := func(cfg Config) (calls, bytes map[string]int64) {
			n, sim := cacheTestNetwork(t, peers, cfg)
			shareCacheCorpus(t, n)
			before := sim.Stats()
			for _, p := range n.Peers() {
				n.InvalidateCaches()
				if _, err := n.SearchCtx(context.Background(), p.Addr(), query, 10); err != nil {
					t.Fatal(err)
				}
			}
			after := sim.Stats()
			return callsDelta(after.CallsByType, before.CallsByType), callsDelta(after.BytesByType, before.BytesByType)
		}
		onCalls, onBytes := bill(Config{Cache: CacheConfig{Enabled: true, DisableResults: true}})
		offCalls, offBytes := bill(Config{})
		if onCalls[msgGetPostings] == 0 {
			t.Fatalf("%d peers: no get_postings sent; the test is vacuous", peers)
		}
		if !reflect.DeepEqual(onCalls, offCalls) || !reflect.DeepEqual(onBytes, offBytes) {
			t.Fatalf("%d peers: cold cached searches sent %v (%v B), uncached %v (%v B)", peers, onCalls, onBytes, offCalls, offBytes)
		}
	}
}

// holdFirstFetch carries messages like the transport it wraps, except that
// it holds the first get_postings until release is closed, closing held
// once it does.
type holdFirstFetch struct {
	simnet.Transport
	first         sync.Once
	held, release chan struct{}
}

func (h *holdFirstFetch) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	if msg.Type == msgGetPostings {
		h.first.Do(func() {
			close(h.held)
			<-h.release
		})
	}
	return h.Transport.CallCtx(ctx, from, to, msg)
}

// TestSearchKeepsItsOwnCancellation: a search that misses on a term another
// search is fetching fetches it itself, so when the other search is canceled
// mid-fetch, the search whose context is live still returns its full
// ranking and no error.
func TestSearchKeepsItsOwnCancellation(t *testing.T) {
	h := &holdFirstFetch{Transport: simnet.New(1), held: make(chan struct{}), release: make(chan struct{})}
	ring := chord.NewRing(h, chord.Config{})
	if _, err := ring.AddNodes("p", 8); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{Cache: CacheConfig{Enabled: true, DisableResults: true}})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := cacheTestNetwork(t, 8, Config{})
	for _, n := range []*Network{n, ref} {
		shareCacheCorpus(t, n)
	}
	q := []string{"epsilon"}
	holder, _ := ring.Owner(chordid.HashKey(q[0]))
	from := simnet.Addr("p0")
	if holder.Addr() == from {
		from = "p1"
	}
	want, err := ref.SearchCtx(context.Background(), from, q, 10)
	if err != nil || len(want) == 0 {
		t.Fatalf("reference search = %v, %v; want a ranking", want, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, err := n.SearchCtx(ctx, from, q, 10)
		firstErr <- err
	}()
	<-h.held
	type outcome struct {
		rl  ir.RankedList
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		rl, err := n.SearchCtx(context.Background(), from, q, 10)
		second <- outcome{rl, err}
	}()
	// Once the second search has missed on the term, it is either fetching
	// it or waiting on the held fetch.
	for deadline := time.Now().Add(5 * time.Second); n.PostingsCacheStats().Misses < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the second search never missed on the term")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(h.release)
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search returned %v; want context.Canceled", err)
	}
	got := <-second
	if got.err != nil {
		t.Fatalf("live search returned %v; want no error", got.err)
	}
	if !reflect.DeepEqual(got.rl, want) {
		t.Fatalf("live search ranked %v; want %v", got.rl, want)
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
				if err := n.ShareCtx(context.Background(), owner, doc(id, tf)); err != nil {
					t.Errorf("Share %s: %v", id, err)
					return
				}
				q := []string{terms[i%len(terms)], terms[(i+2)%len(terms)]}
				if _, err := n.SearchCtx(context.Background(), owner, q, 5); err != nil {
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
