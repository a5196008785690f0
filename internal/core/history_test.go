package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// scanHistory is the reference the eviction cursor is pinned against: the
// bounded history that finds its victim by scanning for the smallest seq.
type scanHistory struct {
	entries []storedQuery
	cap     int
	seq     uint64
}

func (h *scanHistory) record(terms []string) {
	h.seq++
	sq := storedQuery{
		terms: append([]string(nil), terms...),
		key:   canonicalQuery(terms),
		hash:  queryHash(terms),
		seq:   h.seq,
	}
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

// TestHistoryCursorMatchesScan drives random record / poll / snapshot-restore
// sequences (restoring into smaller, equal and larger HistoryCap) through a
// one-peer network and demands the same history slice, entry for entry, as
// the scanning reference — so polls, HistoryMultiset and snapshots cannot
// tell the two apart.
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
				req := pollReq{Term: vocab[rng.Intn(len(vocab))], DocTerms: pick()}
				req.DocTerms = append(req.DocTerms, req.Term)
				if state.seq > 0 {
					req.Since = uint64(rng.Int63n(int64(state.seq) + 1))
				}
				want := (&indexingState{ix: state.ix, history: ref.entries, seq: ref.seq}).poll(req)
				if got := state.poll(req); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: poll(%+v) = %+v, reference %+v", seed, step, req, got, want)
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
			for i := range ref.entries {
				if !reflect.DeepEqual(state.history[i], ref.entries[i]) {
					t.Fatalf("seed %d step %d: history[%d] = %+v, reference %+v",
						seed, step, i, state.history[i], ref.entries[i])
				}
			}
		}
	}
}
