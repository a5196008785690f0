package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
	return slices.Collect(ix.All("t"))
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

	merged := MergeTopK([]MergeTerm{{List: ix.Encoded("t"), WQ: wq, N: n, DF: df}}, len(ps))
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
	// shaped gives ids equal frequency and length, so each document's score
	// ties with every other one under the same terms and the doc-ID order
	// decides the cut: the merge's 8-byte key compares and the heap's
	// tie-break are both on the line.
	shaped := func(ids ...string) []index.Posting {
		ps := make([]index.Posting, len(ids))
		for i, id := range ids {
			ps[i] = index.Posting{Doc: index.DocID(id), Owner: "peer00", Freq: 2, DocLen: 100}
		}
		return ps
	}
	short := []string{"a", "ab", "abc", "d", "doc1", "doc12", "doc1234", "zzzzzzz"}
	eight := []string{"doc00001", "doc00002", "doc00010", "abcdefgh", "abcdefgi", "zzzzzzzz"}
	shared8 := []string{"doc00001a", "doc00001b", "doc00001", "doc000010", "doc00001aa", "doc00001ab", "doc00002zz"}
	prefixes := []string{"ab", "ab\x00", "ab\x00\x00", "ab\x01", "abc", "\x00", "\x00\x00",
		"doc0000", "doc0000\x00", "doc00000", "doc00000\x00", "doc00000\x00\x00", "doc000000"}
	// long holds IDs of 20 to 40 bytes sharing long prefixes: each is longer
	// than a cursor's scratch region and a heap slot as carved, so decoding
	// one must grow its own buffer, never run into a neighbour's.
	var long []string
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("collection/archive/%03d/%s", i%7, strings.Repeat("x", i%19))
		long = append(long, id)
	}
	long = slices.Compact(slices.Sorted(slices.Values(long)))
	var everyOther []string
	for i := 0; i < len(long); i += 2 {
		everyOther = append(everyOther, long[i])
	}
	cases := map[string][][]index.Posting{
		// IDs longer than any carved buffer, under overlapping terms; the
		// last term drains alone over the others' kept IDs.
		"ids-longer-than-16-bytes": {shaped(long...), shaped(everyOther...), reweigh(shaped(long[5:40]...)), shaped(long[len(long)/2:]...)},
		// IDs shorter than 8 bytes, and exactly 8, under overlapping terms.
		"ids-up-to-8-bytes": {shaped(short...), shaped(eight...), shaped(slices.Concat(short[2:], eight[:3])...)},
		// IDs longer than 8 bytes whose first 8 are the same.
		"ids-sharing-8-bytes": {shaped(shared8...), shaped(shared8[1:4]...), shaped(shared8[3:]...)},
		// One ID a prefix of another, trailing 0x00 bytes included.
		"prefix-ids": {shaped(prefixes...), shaped(prefixes[1:7]...), shaped(prefixes[5:]...)},
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
			oracle[i] = oracleTerm{ps: slices.Collect(ix.All(fmt.Sprint("term", i))), wq: 0.2 + 0.1*float64(i), df: max(len(ps), 1)}
		}
		for _, k := range []int{1, 3, 10, 100, 5000} {
			mts := make([]MergeTerm, len(lists))
			for i, o := range oracle {
				mts[i] = MergeTerm{List: ix.Encoded(fmt.Sprint("term", i)), WQ: o.wq, N: n, DF: o.df}
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

// The heap's tie-break, fed out of doc order: with every score equal, the k
// kept are the k smallest IDs whatever order they arrive in — through
// RankedTop (string candidates) and SketchRanker (byte candidates aliasing
// one scratch buffer) alike. The IDs are prefixes of one another, trailing
// 0x00 bytes included, so only the lengths tell some of them apart.
func TestTopKTieBreakAnyOrder(t *testing.T) {
	ids := []string{"ab", "ab\x00", "ab\x00\x00", "ab\x01", "abc", "\x00", "\x00\x00",
		"doc0000", "doc0000\x00", "doc00000", "doc00000\x00", "doc00000\x00\x00", "doc000000", "doc00001a"}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		order := slices.Clone(ids)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if round == 0 {
			slices.Sort(order)
			slices.Reverse(order) // every candidate beats the worst kept one
		}
		acc := NewAccumulator()
		for _, id := range order {
			acc.Accumulate(index.DocID(id), 1, 4)
		}
		for k := 1; k < len(ids); k++ {
			want := acc.Ranked().Top(k)
			if got := acc.RankedTop(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("order %q k=%d: RankedTop %v, want %v", order, k, got.Docs(), want.Docs())
			}
			r := NewSketchRanker(nil, k)
			scratch := make([]byte, 0, 16)
			for _, id := range order {
				scratch = append(scratch[:0], id...)
				r.Offer(scratch, nil)
			}
			if got := r.Ranked().Docs(); !reflect.DeepEqual(got, want.Docs()) {
				t.Fatalf("order %q k=%d: SketchRanker %q, want %q", order, k, got, want.Docs())
			}
		}
	}
}
