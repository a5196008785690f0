package ir

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spritedht/sprite/internal/index"
)

// benchFixture builds one term's postings in both representations: the
// decoded slice the plain index serves and the block-compressed form. Doc
// IDs are the synthetic corpus shape (docNNNNN ascending) so front-coding
// behaves as it does in the postings benchmark.
func benchFixture(n int) ([]index.Posting, *index.Inverted) {
	rng := rand.New(rand.NewSource(7))
	ps := make([]index.Posting, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, index.Posting{
			Doc:    index.DocID(fmt.Sprintf("doc%05d", i)),
			Owner:  fmt.Sprintf("peer%02d", rng.Intn(64)),
			Freq:   1 + rng.Intn(9),
			DocLen: 60 + rng.Intn(180),
		})
	}
	ix := index.NewInverted()
	for _, p := range ps {
		ix.Add("t", p)
	}
	return ps, ix
}

// BenchmarkAccumulateSlice is the plain arm's read path: iterate a decoded
// []Posting and fold Weight per posting.
func BenchmarkAccumulateSlice(b *testing.B) {
	ps, _ := benchFixture(50000)
	acc := NewAccumulator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, p := range ps {
			acc.Accumulate(p.Doc, 0.37*Weight(p.NormFreq(), LargeN, len(ps)), p.DocLen)
		}
	}
}

// BenchmarkMergeTopK is the query path over one long list: merge the term
// cursor straight into a bounded top-k heap, no accumulator at all.
func BenchmarkMergeTopK(b *testing.B) {
	ps, ix := benchFixture(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeTopK([]MergeTerm{{List: ix.Encoded("t"), WQ: 0.37, N: LargeN, DF: len(ps)}}, 10)
	}
}

// BenchmarkScoreQuery scores one query of the benchmark's postings workload
// shape — 4 terms × 60 postings drawn from 150 documents, k = 20 — the way
// the query path does now (merge) and the way it did before (collect: one
// []Contribution per term, folded through a sized accumulator, RankedTop):
//
//	go test -run XXX -bench ScoreQuery -benchmem ./internal/ir
func BenchmarkScoreQuery(b *testing.B) {
	const (
		terms, perTerm, docs, k = 4, 60, 150, 20
	)
	rng := rand.New(rand.NewSource(7))
	ix := index.NewInverted()
	for t := 0; t < terms; t++ {
		for _, d := range rng.Perm(docs)[:perTerm] {
			ix.Add(fmt.Sprint("t", t), index.Posting{
				Doc:    index.DocID(fmt.Sprintf("doc%05d", d)),
				Owner:  fmt.Sprintf("peer%02d", d%16),
				Freq:   1 + rng.Intn(9),
				DocLen: 60 + rng.Intn(180),
			})
		}
	}
	lists := make([]index.Encoded, terms)
	for t := range lists {
		lists[t] = ix.Encoded(fmt.Sprint("t", t))
	}
	wq := QueryWeight(1, terms, LargeN, perTerm)

	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mts := make([]MergeTerm, 0, terms)
			for _, e := range lists {
				mts = append(mts, MergeTerm{List: e, WQ: wq, N: LargeN, DF: perTerm})
			}
			scoreSink = MergeTopK(mts, k)
		}
	})
	b.Run("collect", func(b *testing.B) {
		b.ReportAllocs()
		acc := NewAccumulator()
		for i := 0; i < b.N; i++ {
			parts := make([][]Contribution, 0, terms)
			for _, e := range lists {
				parts = append(parts, CollectStream(e.Cursor(), wq, LargeN, perTerm, make([]Contribution, 0, e.Len())))
			}
			for _, part := range parts {
				acc.AccumulateAll(part)
			}
			scoreSink = acc.RankedTop(k)
			acc.Reset()
		}
	})
}

var scoreSink RankedList
