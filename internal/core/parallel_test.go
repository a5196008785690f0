package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// This file tests the concurrent query execution engine's central contract:
// for a fixed corpus and query stream, every observable output — ranked
// lists (scores included), per-peer query histories, and message/byte
// accounting — is bit-identical at Parallelism=1 (the legacy sequential
// path) and Parallelism=8 (full fan-out).

// parallelWorkload drives one deployment through a fixed mixed workload —
// shares, training inserts, learning sweeps, recorded searches, expansion —
// and returns every ranked list produced, in order.
func parallelWorkload(t *testing.T, n *Network) []ir.RankedList {
	t.Helper()
	vocab := []string{"chord", "dht", "ring", "hash", "peer", "index", "query", "learn", "route", "store"}
	for d := 0; d < 12; d++ {
		tf := map[string]int{}
		for v := 0; v < len(vocab); v++ {
			if f := (d*7+v*3)%11 - 3; f > 0 {
				tf[vocab[v]] = f
			}
		}
		tf[fmt.Sprintf("uniq%d", d)] = 2
		owner := simnet.Addr(fmt.Sprintf("p%d", d%8))
		if err := n.ShareCtx(context.Background(), owner, doc(fmt.Sprintf("d%d", d), tf)); err != nil {
			t.Fatalf("Share d%d: %v", d, err)
		}
	}
	training := [][]string{
		{"chord", "ring"}, {"dht", "hash", "peer"}, {"query", "learn"},
		{"chord", "dht"}, {"index", "store"}, {"peer", "route", "ring"},
	}
	for i, q := range training {
		from := simnet.Addr(fmt.Sprintf("p%d", i%8))
		if err := n.InsertQueryCtx(context.Background(), from, q); err != nil {
			t.Fatalf("InsertQuery %v: %v", q, err)
		}
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("LearnAll: %v", err)
	}
	queries := [][]string{
		{"chord"}, {"chord", "dht", "ring"}, {"hash", "peer"},
		{"query", "learn", "index", "store"}, {"route", "ring", "peer", "dht", "chord"},
		{"uniq3", "chord"}, {"chord", "dht", "ring"}, // verbatim repeat (result cache path)
	}
	var out []ir.RankedList
	for i, q := range queries {
		from := simnet.Addr(fmt.Sprintf("p%d", (i+2)%8))
		rl, err := n.SearchCtx(context.Background(), from, q, 10)
		if err != nil {
			t.Fatalf("Search %v: %v", q, err)
		}
		out = append(out, rl)
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("second LearnAll: %v", err)
	}
	erl, _, err := n.SearchExpanded("p1", []string{"chord", "dht"}, 10, ExpandOptions{})
	if err != nil {
		t.Fatalf("SearchExpanded: %v", err)
	}
	out = append(out, erl)
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("third LearnAll: %v", err)
	}
	for _, q := range queries[:3] {
		rl, err := n.SearchCtx(context.Background(), "p5", q, 10)
		if err != nil {
			t.Fatalf("post-learning Search %v: %v", q, err)
		}
		out = append(out, rl)
	}
	return out
}

// peerHistories returns, per peer address, the sorted multiset of cached
// query keys. Sequence numbers are excluded deliberately: concurrent
// recordings of the same query at the same peer arrive in arbitrary order,
// but the entries themselves are content-identical, so the multiset is the
// determinism-relevant view (it is also all that poll results depend on,
// beyond ordering poll already sorts away).
func peerHistories(n *Network) map[simnet.Addr][]string {
	out := make(map[simnet.Addr][]string)
	for _, p := range n.Peers() {
		p.indexing.mu.Lock()
		keys := make([]string, 0, len(p.indexing.history.ring))
		for _, q := range p.indexing.history.issuances() {
			keys = append(keys, canonicalQuery(q.terms))
		}
		p.indexing.mu.Unlock()
		sort.Strings(keys)
		out[p.Addr()] = keys
	}
	return out
}

func runParallelArm(t *testing.T, parallelism int, cacheOn bool) ([]ir.RankedList, map[simnet.Addr][]string, simnet.Stats) {
	t.Helper()
	sim := simnet.New(1)
	ring := chord.NewRing(sim, chord.Config{})
	if _, err := ring.AddNodes("p", 8); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{
		InitialTerms:      3,
		ReplicationFactor: 1,
		Parallelism:       parallelism,
		Cache:             CacheConfig{Enabled: cacheOn},
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	rls := parallelWorkload(t, n)
	return rls, peerHistories(n), sim.Stats()
}

func TestParallelDeterminismMatchesSequential(t *testing.T) {
	for _, cacheOn := range []bool{false, true} {
		name := "cache-off"
		if cacheOn {
			name = "cache-on"
		}
		t.Run(name, func(t *testing.T) {
			seqRLs, seqHist, seqStats := runParallelArm(t, 1, cacheOn)
			parRLs, parHist, parStats := runParallelArm(t, 8, cacheOn)

			if len(seqRLs) != len(parRLs) {
				t.Fatalf("result count %d vs %d", len(seqRLs), len(parRLs))
			}
			for i := range seqRLs {
				if !reflect.DeepEqual(seqRLs[i], parRLs[i]) {
					t.Errorf("query %d: sequential %v != parallel %v", i, seqRLs[i], parRLs[i])
				}
			}
			if !reflect.DeepEqual(seqHist, parHist) {
				t.Errorf("per-peer query histories diverged:\nseq: %v\npar: %v", seqHist, parHist)
			}
			if seqStats.Calls != parStats.Calls || seqStats.Bytes != parStats.Bytes {
				t.Errorf("message accounting diverged: seq %d calls/%d bytes, par %d calls/%d bytes",
					seqStats.Calls, seqStats.Bytes, parStats.Calls, parStats.Bytes)
			}
			if !reflect.DeepEqual(seqStats.CallsByType, parStats.CallsByType) {
				t.Errorf("per-type call counts diverged:\nseq: %v\npar: %v", seqStats.CallsByType, parStats.CallsByType)
			}
			if !reflect.DeepEqual(seqStats.BytesByType, parStats.BytesByType) {
				t.Errorf("per-type byte counts diverged:\nseq: %v\npar: %v", seqStats.BytesByType, parStats.BytesByType)
			}
		})
	}
}

// TestParallelEngineRaceRegression extends the PR3 generation-race test to
// the parallel engine: concurrent recorded searches, shares, learning sweeps,
// and transport-level fail/recover flips, all with Parallelism > 1, must be
// race-free (run under -race) and never serve a stale cached result past a
// failure.
func TestParallelEngineRaceRegression(t *testing.T) {
	n, sim := resilientNetwork(t, 8, Config{
		InitialTerms:      2,
		ReplicationFactor: 1,
		Parallelism:       8,
		Cache:             CacheConfig{Enabled: true},
	})
	if err := n.ShareCtx(context.Background(), "p0", doc("d1", map[string]int{"chord": 5, "dht": 3})); err != nil {
		t.Fatal(err)
	}
	owner := ownerOfTerm(t, n, "chord")
	searcher := searcherAvoiding(t, n, owner.Addr(), "p0")

	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			n.SearchCtx(context.Background(), searcher, []string{"chord", "dht"}, 10)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			id := index.DocID(fmt.Sprintf("r%d", i))
			n.ShareCtx(context.Background(), "p1", corpus.NewDocument(id, map[string]int{"chord": 2, "extra": 1}))
			n.Unshare(id)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			n.LearnAllCtx(context.Background())
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			sim.Fail(owner.Addr())
			n.InvalidateCaches()
			sim.Recover(owner.Addr())
			n.InvalidateCaches()
		}
	}()
	wg.Wait()

	// Quiesced sanity: searches still work and find the shared document.
	rl, err := n.SearchCtx(context.Background(), searcher, []string{"chord"}, 10)
	if err != nil {
		t.Fatalf("post-storm search: %v", err)
	}
	if rl.Rank("d1") < 0 {
		t.Fatalf("d1 lost after the storm: %v", rl)
	}
}

// TestParallelRecordErrorsCounted covers the result-cache-hit replay fix: a
// cache hit during an outage of the indexing peer silently dropped the
// history recording before; now the drop lands in the
// sprite.fanout.record_errors counter.
func TestParallelRecordErrorsCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	n, sim := resilientNetwork(t, 8, Config{
		InitialTerms: 2,
		Parallelism:  4,
		Telemetry:    reg,
		Cache:        CacheConfig{Enabled: true},
	})
	if err := n.ShareCtx(context.Background(), "p0", doc("d1", map[string]int{"chord": 5})); err != nil {
		t.Fatal(err)
	}
	owner := ownerOfTerm(t, n, "chord")
	searcher := searcherAvoiding(t, n, owner.Addr())

	if _, err := n.SearchCtx(context.Background(), searcher, []string{"chord"}, 10); err != nil {
		t.Fatalf("priming search: %v", err)
	}
	if c := reg.Counter("sprite.fanout.record_errors").Value(); c != 0 {
		t.Fatalf("record_errors = %d before any outage", c)
	}
	before := owner.HistoryLen()

	// The repeat hits the result cache; its history replay runs into the
	// outage and must be counted, not swallowed.
	sim.DropCalls(owner.Addr(), 1)
	rl, err := n.SearchCtx(context.Background(), searcher, []string{"chord"}, 10)
	if err != nil {
		t.Fatalf("cached search: %v", err)
	}
	if rl.Rank("d1") < 0 {
		t.Fatalf("cached result lost d1: %v", rl)
	}
	if c := reg.Counter("sprite.fanout.record_errors").Value(); c != 1 {
		t.Fatalf("record_errors = %d, want 1", c)
	}
	if owner.HistoryLen() != before {
		t.Fatalf("history grew despite dropped recording")
	}

	// Outage over: the next cached hit records again, with no new drops.
	if _, err := n.SearchCtx(context.Background(), searcher, []string{"chord"}, 10); err != nil {
		t.Fatal(err)
	}
	if c := reg.Counter("sprite.fanout.record_errors").Value(); c != 1 {
		t.Fatalf("record_errors = %d after recovery, want still 1", c)
	}
	if owner.HistoryLen() != before+1 {
		t.Fatalf("history len = %d, want %d", owner.HistoryLen(), before+1)
	}
}
