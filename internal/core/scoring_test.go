package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// sliceOracle is §4's query processing the slow, obvious way: decode each
// distinct term's served list whole, fold it through the accumulator in
// query-term order, sort every candidate, cut at k. skip names terms whose
// fetch is expected to fail; they count toward the query's length and
// nothing else.
func sliceOracle(t testing.TB, n *Network, terms []string, k int, skip map[string]bool) ir.RankedList {
	t.Helper()
	qtf := make(map[string]int, len(terms))
	for _, term := range terms {
		qtf[term]++
	}
	acc := ir.NewAccumulator()
	for _, term := range distinctTerms(terms) {
		if skip[term] {
			continue
		}
		ps, _, ok := n.ServedPostings(ownerOfTerm(t, n, term).Addr(), term)
		if !ok {
			t.Fatalf("no indexing peer for %q", term)
		}
		df := len(ps)
		wq := ir.QueryWeight(qtf[term], len(terms), n.cfg.SurrogateN, df)
		for _, p := range ps {
			acc.Accumulate(p.Doc, wq*ir.Weight(p.NormFreq(), n.cfg.SurrogateN, df), p.DocLen)
		}
	}
	return acc.Ranked().Top(max(k, 0))
}

// sameBits compares two rankings document for document and score bit for
// score bit.
func sameBits(got, want ir.RankedList) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("%d hits (nil: %v), want %d (nil: %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("hit %d = %s %x, want %s %x", i,
				got[i].Doc, math.Float64bits(got[i].Score), want[i].Doc, math.Float64bits(want[i].Score))
		}
	}
	return nil
}

// shareScoringCorpus shares docs documents of termsPerDoc terms each over a
// vocabulary of vocab terms, every term indexed, so lists overlap heavily.
func shareScoringCorpus(t testing.TB, n *Network, rng *rand.Rand, docs, vocab, termsPerDoc int) {
	t.Helper()
	peers := n.Peers()
	for d := 0; d < docs; d++ {
		tf := make(map[string]int, termsPerDoc)
		for len(tf) < termsPerDoc {
			tf[fmt.Sprintf("t%02d", rng.Intn(vocab))] = 1 + rng.Intn(9)
		}
		if err := n.Share(peers[d%len(peers)].Addr(), doc(fmt.Sprintf("doc%04d", d), tf)); err != nil {
			t.Fatalf("Share: %v", err)
		}
	}
}

// TestSearchMatchesSliceOracle pins the production scorer — one streaming
// merge over the fetched terms' compressed cursors — to the slice oracle,
// bit for bit, across parallelism, caching, repeated and unmatched terms,
// k from 1 to beyond the candidate count, and a term lost to a fault.
func TestSearchMatchesSliceOracle(t *testing.T) {
	const vocab = 12
	for _, parallelism := range []int{1, 4} {
		for _, cacheOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("parallelism=%d/cache=%v", parallelism, cacheOn), func(t *testing.T) {
				n, sim := resilientNetwork(t, 8, Config{
					InitialTerms: 6,
					Parallelism:  parallelism,
					Cache:        CacheConfig{Enabled: cacheOn},
				})
				rng := rand.New(rand.NewSource(23))
				shareScoringCorpus(t, n, rng, 80, vocab, 6)

				queries := [][]string{
					{"t03", "t07", "t03"},        // qtf > 1
					{"t01", "nosuchterm", "t05"}, // a term matching nothing, mid-query
					{"nosuchterm"},               // nothing at all
					{"t09", "t02", "t11", "t00"},
				}
				for i := 0; i < 40; i++ {
					q := make([]string, 1+rng.Intn(5))
					for j := range q {
						q[j] = fmt.Sprintf("t%02d", rng.Intn(vocab))
					}
					queries = append(queries, q)
				}
				for _, q := range queries {
					for _, k := range []int{1, 5, 20, 10_000} {
						want := sliceOracle(t, n, q, k, nil)
						// Twice: with caching on the second answer comes out of
						// the result cache.
						for round := 0; round < 2; round++ {
							got, err := n.SearchCtx(context.Background(), "p0", q, k)
							if err != nil {
								t.Fatalf("search %v k=%d: %v", q, k, err)
							}
							if err := sameBits(got, want); err != nil {
								t.Fatalf("search %v k=%d round %d: %v", q, k, round, err)
							}
						}
					}
				}

				// One term's indexing peer stops answering: the same hits as the
				// oracle computes without that term, and a PartialError naming it.
				lost := "t04"
				down := ownerOfTerm(t, n, lost).Addr()
				searcher := searcherAvoiding(t, n, down)
				var kept []string
				skip := map[string]bool{}
				for i := 0; i < vocab; i++ {
					term := fmt.Sprintf("t%02d", i)
					if ownerOfTerm(t, n, term).Addr() == down {
						skip[term] = true
					} else if len(kept) < 2 {
						kept = append(kept, term)
					}
				}
				q := []string{kept[0], lost, kept[1], kept[0]}
				want := sliceOracle(t, n, q, 20, skip)
				n.InvalidateCaches()
				sim.DropCalls(down, 1_000_000)
				got, err := n.SearchCtx(context.Background(), searcher, q, 20)
				var pe *PartialError
				if !errors.As(err, &pe) || len(pe.Failures) != 1 || pe.Failures[0].Term != lost {
					t.Fatalf("search %v with %s down: error %v, want a PartialError naming %q", q, down, err, lost)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("search %v with %s down: %v", q, down, err)
				}
				if len(got) == 0 || sameBits(got, sliceOracle(t, n, q, 20, nil)) == nil {
					t.Fatalf("losing %q changed nothing about %v: the fault case is vacuous", lost, q)
				}
			})
		}
	}
}

// searchAllocs reports the allocations of one unrecorded, uncached search
// from p0 over a network whose every term lists perTerm documents.
func searchAllocs(t *testing.T, perTerm int) float64 {
	t.Helper()
	n := testNetwork(t, 4, Config{InitialTerms: 4})
	q := []string{"wa", "wb", "wc", "wd"}
	tf := map[string]int{"wa": 3, "wb": 2, "wc": 5, "wd": 1}
	for d := 0; d < perTerm; d++ {
		if err := n.Share(simnet.Addr(fmt.Sprintf("p%d", d%4)), doc(fmt.Sprintf("doc%04d", d), tf)); err != nil {
			t.Fatal(err)
		}
	}
	for _, term := range q {
		if df := ownerOfTerm(t, n, term).Index().DocFreq(term); df != perTerm {
			t.Fatalf("term %s lists %d documents, want %d", term, df, perTerm)
		}
	}
	var rl ir.RankedList
	allocs := testing.AllocsPerRun(50, func() {
		rl, _ = n.Probe("p0", q, 10)
	})
	if len(rl) != 10 {
		t.Fatalf("search returned %d hits, want 10", len(rl))
	}
	return allocs
}

// TestSearchAllocationsIndependentOfListLength: a search builds nothing per
// posting, so ten times the postings under the same terms and the same k
// cost no allocation more. (Every document scores the same here, so the
// doc-ID tie-break admits the first k hits and none after them; with distinct
// scores the only growth is the doc-ID strings of hits that entered the top k
// and were pushed out again, logarithmic in the list.)
func TestSearchAllocationsIndependentOfListLength(t *testing.T) {
	short, long := searchAllocs(t, 30), searchAllocs(t, 300)
	t.Logf("allocs per search: %v at 30 postings/term, %v at 300", short, long)
	if long != short {
		t.Fatalf("allocations grew with the lists: %v at 30 postings per term, %v at 300", short, long)
	}
}
