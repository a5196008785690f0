package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
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
// candidate of its election is hashed afresh, and the elected issuances
// sorted by canonicalising inside the comparator, then counted run by run.
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
// Snapshot/Restore moves the real one: in arrival order, oldest first, the
// oldest dropped beyond the new capacity.
func (h *scanHistory) restoreInto(cap int) {
	h.cap = cap
	h.entries = h.inArrivalOrder()
	if len(h.entries) > cap {
		h.entries = h.entries[len(h.entries)-cap:]
	}
}

// inArrivalOrder returns the entries sorted by seq.
func (h *scanHistory) inArrivalOrder() []refQuery {
	out := slices.Clone(h.entries)
	slices.SortFunc(out, func(a, b refQuery) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

func (h *scanHistory) poll(ix *index.Inverted, term string, doc index.DocID, docTerms []string, since uint64) pollResult {
	resp := pollResult{Missing: true, NewSince: h.seq, IndexedDF: ix.DocFreq(term)}
	for p := range ix.All(term) {
		if p.Doc == doc {
			resp.Missing = false
		}
	}
	var issued [][]string
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
		issued = append(issued, append([]string(nil), sq.terms...))
	}
	slices.SortStableFunc(issued, func(a, b []string) int {
		if c := strings.Compare(canonicalQuery(a), canonicalQuery(b)); c != 0 {
			return c
		}
		return slices.Compare(a, b)
	})
	// Each distinct query once, counting its issuances: equal ones sorted
	// into a run.
	for _, q := range issued {
		if n := len(resp.Queries); n > 0 && slices.Equal(resp.Queries[n-1].Terms, q) {
			resp.Queries[n-1].Copies++
			continue
		}
		resp.Queries = append(resp.Queries, polledQuery{Terms: q, Copies: 1})
	}
	return resp
}

func (h *scanHistory) multiset() map[string]int {
	m := make(map[string]int, len(h.entries))
	for _, sq := range h.entries {
		m[canonicalQuery(sq.terms)]++
	}
	return m
}

// issuances returns the history's issuances in arrival order, each with its
// query's terms.
func (h *history) issuances() []refQuery {
	out := make([]refQuery, len(h.ring))
	for i := range out {
		out[i] = refQuery{terms: h.queries[h.at(i)].terms, seq: h.seqAt(i)}
	}
	return out
}

// checkMemo demands that whatever a query has memoised is what an eager
// computation over its terms gives.
func checkMemo(t *testing.T, h *history) {
	t.Helper()
	for i, sq := range h.queries {
		if sq.key == "" {
			continue
		}
		if sq.key != canonicalQuery(sq.terms) || sq.hash != queryHash(sq.terms) {
			t.Fatalf("queries[%d] %v memoised (%q, %v), eager (%q, %v)",
				i, sq.terms, sq.key, sq.hash, canonicalQuery(sq.terms), queryHash(sq.terms))
		}
	}
}

// checkStore demands that the store hold exactly one query per distinct live
// term sequence — fully evicted ones reclaimed, none merged — each with its
// ring records' count and newest seq and found by its hash, and every other
// slot free and listed once.
func checkStore(t *testing.T, h *history) {
	t.Helper()
	counts := make([]int, len(h.queries))
	newest := make([]uint64, len(h.queries))
	for i := range h.ring {
		q := h.at(i)
		counts[q]++
		newest[q] = max(newest[q], h.seqAt(i))
	}
	distinct := map[string]int32{}
	free := map[int32]bool{}
	for _, q := range h.free {
		free[q] = true
	}
	for i, sq := range h.queries {
		q := int32(i)
		if counts[i] == 0 {
			if !free[q] || sq.terms != nil || sq.count != 0 {
				t.Fatalf("queries[%d] %v has no issuance but is not a free slot (count %d, listed %v)", i, sq.terms, sq.count, free[q])
			}
			continue
		}
		if free[q] || sq.count != counts[i] || sq.newest != newest[i] {
			t.Fatalf("queries[%d] %v: count %d newest %d free %v, ring says %d and %d", i, sq.terms, sq.count, sq.newest, free[q], counts[i], newest[i])
		}
		k := fmt.Sprintf("%q", sq.terms)
		if prev, dup := distinct[k]; dup {
			t.Fatalf("queries[%d] and [%d] both store %v", prev, i, sq.terms)
		}
		distinct[k] = q
		if at, ok := h.slots[termsHash(sq.terms)]; !ok || at != q {
			t.Fatalf("queries[%d] %v: its hash finds slot %d (%v)", i, sq.terms, at, ok)
		}
	}
	if len(free) != len(h.free) || len(distinct)+len(free) != len(h.queries) || len(h.slots) != len(distinct) {
		t.Fatalf("%d slots: %d live, %d free (%d listed), %d hashes", len(h.queries), len(distinct), len(free), len(h.free), len(h.slots))
	}
}

// TestHistoryCursorMatchesScan drives random record / poll / snapshot-restore
// sequences (restoring into smaller, equal and larger HistoryCap) through a
// one-peer network and demands the same issuances in arrival order, the same
// poll responses and the same HistoryMultiset as the scanning, eagerly
// hashing reference, which stores every issuance — so neither the distinct
// store, the eviction cursor nor the memoised keys can be told from it.
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
		// The polled document is "d", whose postings the peer holds, or one
		// it holds nothing of.
		if err := n.ShareCtx(context.Background(), "p0", doc("d", map[string]int{"alpha": 3, "beta": 2, "gamma": 1})); err != nil {
			t.Fatal(err)
		}
		ref := &scanHistory{cap: n.cfg.HistoryCap}
		for step := 0; step < 400; step++ {
			state := &n.Peers()[0].indexing
			switch op := rng.Intn(20); {
			case op < 15:
				q := pick()
				before := state.history.seq
				if err := n.InsertQueryCtx(context.Background(), "p0", q); err != nil {
					t.Fatal(err)
				}
				// One recording per distinct term: every term lives here.
				for i := before; i < state.history.seq; i++ {
					ref.record(q)
				}
			case op < 18:
				term := vocab[rng.Intn(len(vocab))]
				docTerms := append(pick(), term)
				polled := []index.DocID{"d", "ghost"}[rng.Intn(2)]
				var since uint64
				switch h := &state.history; {
				case len(h.ring) > 0 && rng.Intn(2) == 0:
					// From just before the oldest issuance to the newest:
					// where the ring's tail is counted.
					since = h.seqAt(0) - 1 + uint64(rng.Intn(len(h.ring)+1))
				case h.seq > 0:
					since = uint64(rng.Int63n(int64(h.seq) + 1))
				}
				want := ref.poll(state.ix, term, polled, docTerms, since)
				if got := state.poll(term, polled, docTerms, since, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: poll(%s, %s, %v, %d) = %+v, reference %+v", seed, step, term, polled, docTerms, since, got, want)
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
			got, want := state.history.issuances(), ref.inArrivalOrder()
			if state.history.seq != ref.seq || len(got) != len(want) {
				t.Fatalf("seed %d step %d: seq/len %d/%d, reference %d/%d",
					seed, step, state.history.seq, len(got), ref.seq, len(want))
			}
			for i := range want {
				if got[i].seq != want[i].seq || !reflect.DeepEqual(got[i].terms, want[i].terms) {
					t.Fatalf("seed %d step %d: issuance %d = %v @%d, reference %v @%d",
						seed, step, i, got[i].terms, got[i].seq, want[i].terms, want[i].seq)
				}
			}
			checkStore(t, &state.history)
			checkMemo(t, &state.history)
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
// poll, and only for the queries it has to place.
func TestHistoryKeysAreLazy(t *testing.T) {
	n := testNetwork(t, 1, Config{HistoryCap: 4})
	state := &n.Peers()[0].indexing
	keyed := func() []string {
		var out []string
		for _, sq := range state.history.queries {
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
		t.Fatalf("queries never polled carry keys %q", got)
	}

	// Entries 3 ({"a", "c"}) and 5 ({"e", "a"}) mention "a"; only 5 is past
	// the watermark, so only 5 is placed.
	poll := func() pollResult { return state.poll("a", "d", []string{"a"}, 3, nil) }
	before := poll()
	if want := []polledQuery{{Terms: []string{"e", "a"}, Copies: 1}}; !reflect.DeepEqual(before.Queries, want) {
		t.Fatalf("poll = %v, want %v", before.Queries, want)
	}
	if got, want := keyed(), []string{"a e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after one poll the keyed queries are %q, want %q", got, want)
	}
	checkMemo(t, &state.history)

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
		t.Fatalf("restored queries carry keys %q before any poll", got)
	}
	if after := poll(); !reflect.DeepEqual(after, before) {
		t.Fatalf("poll after restore = %+v, before the snapshot %+v", after, before)
	}
}

// TestHistoryConcurrentRecordAndPoll runs recorders and pollers against one
// indexing state at once — the memo is written by poll into queries that
// cacheQuery reclaims and reuses — and is meaningful under -race. What survives must be internally consistent and a final poll must
// equal the eager reference over the same issuances.
func TestHistoryConcurrentRecordAndPoll(t *testing.T) {
	const recorders, pollers, perWorker = 4, 4, 300
	state := &indexingState{ix: index.NewInverted(), history: history{cap: 64}}
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
				state.poll(vocab[(w+i)%len(vocab)], "d", vocab, 0, nil)
			}
		}(w)
	}
	wg.Wait()

	h := &state.history
	if h.seq != recorders*perWorker || len(h.ring) != h.cap {
		t.Fatalf("seq/len %d/%d, want %d/%d", h.seq, len(h.ring), recorders*perWorker, h.cap)
	}
	checkStore(t, h)
	checkMemo(t, h)
	ref := &scanHistory{seq: h.seq, entries: h.issuances()}
	for _, term := range vocab {
		if got, want := state.poll(term, "d", vocab, 0, nil), ref.poll(state.ix, term, "d", vocab, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("poll(%s) = %+v, reference %+v", term, got, want)
		}
	}
}

// TestCacheQueryAllocatesOnlyTheTermsCopy: at capacity a repeat of a stored
// query allocates nothing, and a new distinct query one allocation — the copy
// of the caller's terms — whatever the query's length.
func TestCacheQueryAllocatesOnlyTheTermsCopy(t *testing.T) {
	const runs = 200
	state := &indexingState{ix: index.NewInverted(), history: history{cap: 8}}
	q := []string{"delta", "alpha", "charlie", "bravo"}
	for i := 0; i < state.history.cap; i++ {
		state.cacheQuery(q)
	}
	if got := testing.AllocsPerRun(runs, func() { state.cacheQuery(q) }); got != 0 {
		t.Fatalf("repeated cacheQuery at cap: %v allocs per call, want 0", got)
	}

	// Distinct queries, each evicting the last issuance of an older one.
	distinct := make([][]string, state.history.cap+runs+1)
	for i := range distinct {
		distinct[i] = []string{"delta", "alpha", fmt.Sprint("charlie", i), "bravo"}
	}
	next := 0
	record := func() { state.cacheQuery(distinct[next]); next++ }
	for i := 0; i < state.history.cap; i++ {
		record()
	}
	if got := testing.AllocsPerRun(runs, record); got != 1 {
		t.Fatalf("new distinct cacheQuery at cap: %v allocs per call, want 1", got)
	}
	checkStore(t, &state.history)
}

// TestRestoreTrimsHistoryToCap: a history restored into a smaller HistoryCap
// keeps its newest issuances, seqs included, and stays within the cap as
// recording goes on; polls answer what the reference's do.
func TestRestoreTrimsHistoryToCap(t *testing.T) {
	ctx := context.Background()
	n := testNetwork(t, 1, Config{HistoryCap: 16})
	if err := n.ShareCtx(ctx, "p0", doc("d", map[string]int{"alpha": 3, "beta": 2, "gamma": 1})); err != nil {
		t.Fatal(err)
	}
	state, ref := &n.Peers()[0].indexing, &scanHistory{cap: 16}
	for i := 0; i < 12; i++ {
		q := [][]string{{"alpha"}, {"beta", "alpha"}, {"gamma"}, {"alpha", "delta"}, {"gamma", "beta"}}[i%5]
		state.cacheQuery(q)
		ref.record(q)
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	n = testNetwork(t, 1, Config{HistoryCap: 4})
	if err := n.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	ref.restoreInto(4)
	p := n.Peers()[0]
	state = &p.indexing
	if got := p.HistoryLen(); got != 4 {
		t.Fatalf("HistoryLen after restoring 12 issuances into cap 4 = %d", got)
	}
	if got, want := state.history.issuances(), ref.inArrivalOrder(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored issuances %v, want the newest four %v", got, want)
	}
	checkStore(t, &state.history)
	for _, term := range []string{"alpha", "beta", "gamma"} {
		docTerms := []string{"alpha", "beta", "gamma"}
		if got, want := state.poll(term, "d", docTerms, 0, nil), ref.poll(state.ix, term, "d", docTerms, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("poll(%s) = %+v, reference %+v", term, got, want)
		}
	}
	state.cacheQuery([]string{"beta"})
	if got := p.HistoryLen(); got != 4 {
		t.Fatalf("HistoryLen after one more recording = %d, want the cap of 4", got)
	}
}
