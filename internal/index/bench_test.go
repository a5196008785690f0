package index

import (
	"fmt"
	"math/rand"
	"testing"
)

// Write-path micro-benchmarks, one posting per operation over one term's
// list of benchDocs documents from 16 owners (32 full blocks):
//
//	go test -run XXX -bench Inverted -benchmem ./internal/index

const benchDocs = 8192

func benchPostings() []Posting {
	ps := make([]Posting, benchDocs)
	for i := range ps {
		ps[i] = Posting{
			Doc:    DocID(fmt.Sprintf("doc%07d", i)),
			Owner:  fmt.Sprintf("peer%02d", i*7%16),
			Freq:   i%9 + 1,
			DocLen: 80 + i%100,
		}
	}
	return ps
}

func benchIndex(ps []Posting) *Inverted {
	ix := NewInverted()
	for _, p := range ps {
		ix.Add("t", p)
	}
	return ix
}

func BenchmarkInvertedAdd(b *testing.B) {
	ps := benchPostings()
	perm := rand.New(rand.NewSource(1)).Perm(benchDocs)

	// fill adds the postings in the given order, starting over with an empty
	// index each time the list is complete.
	fill := func(b *testing.B, at func(i int) int) {
		b.ReportAllocs()
		ix := NewInverted()
		for i := 0; i < b.N; i++ {
			if i%benchDocs == 0 {
				ix = NewInverted()
			}
			ix.Add("t", ps[at(i%benchDocs)])
		}
	}
	b.Run("ascending", func(b *testing.B) { fill(b, func(i int) int { return i }) })
	b.Run("random", func(b *testing.B) { fill(b, func(i int) int { return perm[i] }) })
	b.Run("replace", func(b *testing.B) {
		ix := benchIndex(ps)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := ps[perm[i%benchDocs]]
			p.Freq = i%9 + 1
			ix.Add("t", p)
		}
	})
}

func BenchmarkInvertedRemove(b *testing.B) {
	ps := benchPostings()
	perm := rand.New(rand.NewSource(1)).Perm(benchDocs)
	b.ReportAllocs()
	var ix *Inverted
	for i := 0; i < b.N; i++ {
		if i%benchDocs == 0 {
			b.StopTimer()
			ix = benchIndex(ps)
			b.StartTimer()
		}
		ix.Remove("t", ps[perm[i%benchDocs]].Doc)
	}
}
