package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/index"
)

// randomPostings builds n postings over a shared doc-ID space, pre-sorted in
// the index's served (ascending doc) order.
func randomPostings(rng *rand.Rand, n int) []index.Posting {
	seen := make(map[index.DocID]bool, n)
	out := make([]index.Posting, 0, n)
	for len(out) < n {
		id := index.DocID(fmt.Sprintf("doc%05d", rng.Intn(4*n)))
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, index.Posting{
			Doc:    id,
			Owner:  fmt.Sprintf("peer%02d", rng.Intn(8)),
			Freq:   1 + rng.Intn(9),
			DocLen: 50 + rng.Intn(200),
		})
	}
	// Insert into an index to get served order without hand-sorting.
	ix := index.NewInverted()
	for _, p := range out {
		ix.Add("t", p)
	}
	return ix.PostingsSlice("t")
}

// sliceOracle folds decoded postings lists through the accumulator term by
// term — the slice loop every other scoring path is pinned against.
type oracleTerm struct {
	ps []index.Posting
	wq float64
	df int
}

func sliceOracle(terms []oracleTerm, n int) *Accumulator {
	acc := NewAccumulator()
	for _, t := range terms {
		for _, p := range t.ps {
			acc.Accumulate(p.Doc, t.wq*Weight(p.NormFreq(), n, t.df), p.DocLen)
		}
	}
	return acc
}

// The scoring paths over one term — the slice loop, the production merge
// over the compressed cursor, and the benchmark's retained CollectStream
// folded via AccumulateAll — must produce bit-identical rankings: same docs,
// same float bits, same order.
func TestStreamPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := randomPostings(rng, 500)
	ix := index.NewInverted()
	for _, p := range ps {
		ix.Add("t", p)
	}
	const (
		wq = 0.37
		n  = LargeN
		df = 500
	)
	want := sliceOracle([]oracleTerm{{ps, wq, df}}, n).Ranked()

	merged := MergeTopK([]MergeTerm{{Cursor: ix.Cursor("t"), WQ: wq, N: n, DF: df}}, len(ps))
	if !reflect.DeepEqual(merged, want) {
		t.Fatal("MergeTopK diverges from the slice loop")
	}

	part := CollectStream(ix.Cursor("t"), wq, n, df, make([]Contribution, 0, len(ps)))
	coll := NewAccumulator()
	coll.AccumulateAll(part)
	if got := coll.Ranked(); !reflect.DeepEqual(got, want) {
		t.Fatal("CollectStream+AccumulateAll diverges from the slice loop")
	}
}

// MergeTopK — the production scorer — must return exactly what the slice
// oracle ranks over the same per-term lists: same docs, same float bits,
// same order — for every k, including k beyond the candidate count.
func TestMergeTopKMatchesAccumulator(t *testing.T) {
	const n = LargeN
	rng := rand.New(rand.NewSource(7))
	shared := randomPostings(rng, 150)
	reweigh := func(ps []index.Posting) []index.Posting {
		out := append([]index.Posting(nil), ps...)
		for i := range out {
			// Same documents, another term's frequencies — and now and then
			// another length, so "docLen of the last contributing term" shows.
			out[i].Freq = 1 + rng.Intn(9)
			if rng.Intn(4) == 0 {
				out[i].DocLen += 1 + rng.Intn(5)
			}
		}
		return out
	}
	cases := map[string][][]index.Posting{
		// Overlapping doc sets, differing df and weights.
		"overlap": {randomPostings(rng, 200+rng.Intn(200)), randomPostings(rng, 200+rng.Intn(200)), randomPostings(rng, 200+rng.Intn(200))},
		// Every document under every term: each merge step folds all heads.
		"duplicate-doc-across-all-terms": {shared, reweigh(shared), reweigh(shared), reweigh(shared)},
		// A term with no postings between two that have them.
		"empty-term-in-the-middle": {randomPostings(rng, 120), nil, randomPostings(rng, 300)},
		// Lists of very different lengths: terms run out one by one.
		"uneven": {randomPostings(rng, 5), randomPostings(rng, 400), randomPostings(rng, 40), randomPostings(rng, 1)},
	}
	for name, lists := range cases {
		ix := index.NewInverted()
		oracle := make([]oracleTerm, len(lists))
		for i, ps := range lists {
			for _, p := range ps {
				ix.Add(fmt.Sprint("term", i), p)
			}
			// The index serves ascending doc IDs; the oracle must fold in
			// that order too.
			oracle[i] = oracleTerm{ps: ix.PostingsSlice(fmt.Sprint("term", i)), wq: 0.2 + 0.1*float64(i), df: max(len(ps), 1)}
		}
		for _, k := range []int{1, 3, 10, 100, 5000} {
			mts := make([]MergeTerm, len(lists))
			for i, o := range oracle {
				mts[i] = MergeTerm{Cursor: ix.Cursor(fmt.Sprint("term", i)), WQ: o.wq, N: n, DF: o.df}
			}
			acc := sliceOracle(oracle, n)
			want := acc.Ranked().Top(k)
			if got := MergeTopK(mts, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: MergeTopK diverges from the slice oracle", name, k)
			}
			if got := acc.RankedTop(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: RankedTop diverges from Ranked().Top", name, k)
			}
		}
	}
	for _, k := range []int{0, -1, 10} {
		if got := MergeTopK(nil, k); got == nil || len(got) != 0 {
			t.Fatalf("MergeTopK(nil, %d) = %#v, want a non-nil empty list", k, got)
		}
	}
}
