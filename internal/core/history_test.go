package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// queryHash is the eager form of what storedQuery.canon memoises: a query's
// ring position, recomputed from its terms on every call.
func queryHash(terms []string) chordid.ID {
	return chordid.HashKey(canonicalQuery(terms))
}

// eagerClosestTerm is the election as the reference runs it: every candidate
// hashed again for every query it is asked to place.
func eagerClosestTerm(qh chordid.ID, candidates []string) string {
	best := ""
	var bestDist chordid.ID
	for _, t := range candidates {
		d := qh.Distance(chordid.HashKey(t))
		if best == "" || d.Cmp(bestDist) < 0 || (d.Cmp(bestDist) == 0 && t < best) {
			best, bestDist = t, d
		}
	}
	return best
}

// refQuery is one entry of the reference history: what a recording stores.
type refQuery struct {
	terms []string
	seq   uint64
}

// scanHistory is the reference the production history is pinned against. It
// finds its eviction victim by scanning for the smallest seq (the production
// one keeps a cursor), and its poll memoises nothing: every entry and every
// candidate of its election is hashed afresh, and the result sorted by
// canonicalising inside the comparator.
type scanHistory struct {
	entries []refQuery
	cap     int
	seq     uint64
}

func (h *scanHistory) record(terms []string) {
	h.seq++
	sq := refQuery{terms: append([]string(nil), terms...), seq: h.seq}
	if len(h.entries) >= h.cap {
		oldest := 0
		for i := range h.entries {
			if h.entries[i].seq < h.entries[oldest].seq {
				oldest = i
			}
		}
		h.entries[oldest] = sq
		return
	}
	h.entries = append(h.entries, sq)
}

// restoreInto moves the reference into a peer with another capacity, the way
// Snapshot/Restore moves the real one: the slice as it lies, except that a
// history with room to grow is put in arrival order first.
func (h *scanHistory) restoreInto(cap int) {
	h.cap = cap
	if len(h.entries) < cap {
		sort.Slice(h.entries, func(i, j int) bool { return h.entries[i].seq < h.entries[j].seq })
	}
}

func (h *scanHistory) poll(ix *index.Inverted, term string, docTerms []string, since uint64) pollResult {
	resp := pollResult{NewSince: h.seq, IndexedDF: ix.DocFreq(term)}
	for _, sq := range h.entries {
		if sq.seq <= since || !containsTerm(sq.terms, term) {
			continue
		}
		var candidates []string
		for _, dt := range docTerms {
			if containsTerm(sq.terms, dt) {
				candidates = append(candidates, dt)
			}
		}
		if eagerClosestTerm(queryHash(sq.terms), candidates) != term {
			continue
		}
		resp.Queries = append(resp.Queries, append([]string(nil), sq.terms...))
	}
	sort.Slice(resp.Queries, func(i, j int) bool {
		return canonicalQuery(resp.Queries[i]) < canonicalQuery(resp.Queries[j])
	})
	return resp
}

func (h *scanHistory) multiset() map[string]int {
	m := make(map[string]int, len(h.entries))
	for _, sq := range h.entries {
		m[canonicalQuery(sq.terms)]++
	}
	return m
}

// checkMemo demands that whatever an entry has memoised is what an eager
// computation over its terms gives.
func checkMemo(t *testing.T, history []storedQuery) {
	t.Helper()
	for i, sq := range history {
		if sq.key == "" {
			continue
		}
		if sq.key != canonicalQuery(sq.terms) || sq.hash != queryHash(sq.terms) {
			t.Fatalf("history[%d] %v memoised (%q, %v), eager (%q, %v)",
				i, sq.terms, sq.key, sq.hash, canonicalQuery(sq.terms), queryHash(sq.terms))
		}
	}
}

// TestHistoryCursorMatchesScan drives random record / poll / snapshot-restore
// sequences (restoring into smaller, equal and larger HistoryCap) through a
// one-peer network and demands the same history slice, entry for entry, the
// same poll responses and the same HistoryMultiset as the scanning, eagerly
// hashing reference — so neither the eviction cursor nor the memoised keys
// can be told from it.
func TestHistoryCursorMatchesScan(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() []string {
			terms := make([]string, 1+rng.Intn(3))
			for i := range terms {
				terms[i] = vocab[rng.Intn(len(vocab))]
			}
			return terms
		}
		capOf := func() int { return 1 + rng.Intn(12) }

		n := testNetwork(t, 1, Config{HistoryCap: capOf()})
		ref := &scanHistory{cap: n.cfg.HistoryCap}
		for step := 0; step < 400; step++ {
			state := &n.Peers()[0].indexing
			switch op := rng.Intn(20); {
			case op < 15:
				q := pick()
				before := state.seq
				if err := n.InsertQuery("p0", q); err != nil {
					t.Fatal(err)
				}
				// One recording per distinct term: every term lives here.
				for i := before; i < state.seq; i++ {
					ref.record(q)
				}
			case op < 18:
				term := vocab[rng.Intn(len(vocab))]
				docTerms := append(pick(), term)
				var since uint64
				if state.seq > 0 {
					since = uint64(rng.Int63n(int64(state.seq) + 1))
				}
				want := ref.poll(state.ix, term, docTerms, since)
				if got := state.poll(term, docTerms, since, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: poll(%s, %v, %d) = %+v, reference %+v", seed, step, term, docTerms, since, got, want)
				}
			default:
				var buf bytes.Buffer
				if err := n.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				n = testNetwork(t, 1, Config{HistoryCap: capOf()})
				if err := n.Restore(&buf); err != nil {
					t.Fatal(err)
				}
				ref.restoreInto(n.cfg.HistoryCap)
				state = &n.Peers()[0].indexing
			}
			if state.seq != ref.seq || len(state.history) != len(ref.entries) {
				t.Fatalf("seed %d step %d: seq/len %d/%d, reference %d/%d",
					seed, step, state.seq, len(state.history), ref.seq, len(ref.entries))
			}
			for i, want := range ref.entries {
				if got := state.history[i]; got.seq != want.seq || !reflect.DeepEqual(got.terms, want.terms) {
					t.Fatalf("seed %d step %d: history[%d] = %v @%d, reference %v @%d",
						seed, step, i, got.terms, got.seq, want.terms, want.seq)
				}
			}
			checkMemo(t, state.history)
			wantSet := map[simnet.Addr]map[string]int{}
			if len(ref.entries) > 0 {
				wantSet["p0"] = ref.multiset()
			}
			if got := n.HistoryMultiset(); !reflect.DeepEqual(got, wantSet) {
				t.Fatalf("seed %d step %d: HistoryMultiset = %v, reference %v", seed, step, got, wantSet)
			}
		}
	}
}

// TestHistoryKeysAreLazy pins who pays for a stored query's key and hash: not
// the recording, not HistoryMultiset, not a snapshot or a restore — only a
// poll, and only for the entries it has to place.
func TestHistoryKeysAreLazy(t *testing.T) {
	n := testNetwork(t, 1, Config{HistoryCap: 4})
	state := &n.Peers()[0].indexing
	keyed := func() []string {
		var out []string
		for _, sq := range state.history {
			if sq.key != "" {
				out = append(out, sq.key)
			}
		}
		sort.Strings(out)
		return out
	}
	for _, q := range [][]string{{"b", "a"}, {"c"}, {"a", "c"}, {"d"}, {"e", "a"}} {
		state.cacheQuery(q) // five into four: {"b", "a"} is evicted unpolled
	}
	n.HistoryMultiset()
	if got := keyed(); len(got) != 0 {
		t.Fatalf("entries never polled carry keys %q", got)
	}

	// Entries 3 ({"a", "c"}) and 5 ({"e", "a"}) mention "a"; only 5 is past
	// the watermark, so only 5 is placed.
	poll := func() pollResult { return state.poll("a", []string{"a"}, 3, nil) }
	before := poll()
	if want := [][]string{{"e", "a"}}; !reflect.DeepEqual(before.Queries, want) {
		t.Fatalf("poll = %v, want %v", before.Queries, want)
	}
	if got, want := keyed(), []string{"a e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after one poll the keyed entries are %q, want %q", got, want)
	}
	checkMemo(t, state.history)

	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	n = testNetwork(t, 1, Config{HistoryCap: 4})
	if err := n.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	state = &n.Peers()[0].indexing
	if got := keyed(); len(got) != 0 {
		t.Fatalf("restored entries carry keys %q before any poll", got)
	}
	if after := poll(); !reflect.DeepEqual(after, before) {
		t.Fatalf("poll after restore = %+v, before the snapshot %+v", after, before)
	}
}

// TestHistoryConcurrentRecordAndPoll runs recorders and pollers against one
// indexing state at once — the memo is written by poll into entries that
// cacheQuery overwrites — and is meaningful under -race. What survives must
// be internally consistent and a final poll must equal the eager reference
// over the same entries.
func TestHistoryConcurrentRecordAndPoll(t *testing.T) {
	const recorders, pollers, perWorker = 4, 4, 300
	state := &indexingState{ix: index.NewInverted(), historyCap: 64}
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	var wg sync.WaitGroup
	for w := 0; w < recorders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				state.cacheQuery([]string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]})
			}
		}(w)
	}
	for w := 0; w < pollers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				state.poll(vocab[(w+i)%len(vocab)], vocab, 0, nil)
			}
		}(w)
	}
	wg.Wait()

	if state.seq != recorders*perWorker || len(state.history) != state.historyCap {
		t.Fatalf("seq/len %d/%d, want %d/%d", state.seq, len(state.history), recorders*perWorker, state.historyCap)
	}
	checkMemo(t, state.history)
	ref := &scanHistory{seq: state.seq}
	for _, sq := range state.history {
		ref.entries = append(ref.entries, refQuery{terms: sq.terms, seq: sq.seq})
	}
	for _, term := range vocab {
		if got, want := state.poll(term, vocab, 0, nil), ref.poll(state.ix, term, vocab, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("poll(%s) = %+v, reference %+v", term, got, want)
		}
	}
}

// TestCacheQueryAllocatesOnlyTheTermsCopy: at capacity a recording costs one
// allocation — the copy of the caller's terms — whatever the query's length.
func TestCacheQueryAllocatesOnlyTheTermsCopy(t *testing.T) {
	state := &indexingState{ix: index.NewInverted(), historyCap: 8}
	q := []string{"delta", "alpha", "charlie", "bravo"}
	for i := 0; i < state.historyCap; i++ {
		state.cacheQuery(q)
	}
	if got := testing.AllocsPerRun(200, func() { state.cacheQuery(q) }); got != 1 {
		t.Fatalf("cacheQuery at cap: %v allocs per call, want 1", got)
	}
}
