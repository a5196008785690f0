package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spritedht/sprite/internal/index"
)

// historyBenchState returns an indexing state whose history is full of
// four-term queries over a 64-term vocabulary — the shape the benchmark's
// postings workload leaves behind.
func historyBenchState(cap int) (*indexingState, [][]string) {
	rng := rand.New(rand.NewSource(1))
	queries := make([][]string, 512)
	for i := range queries {
		q := make([]string, 4)
		for j := range q {
			q[j] = fmt.Sprintf("term%02d", rng.Intn(64))
		}
		queries[i] = q
	}
	state := &indexingState{ix: index.NewInverted(), historyCap: cap}
	for i := 0; i < cap; i++ {
		state.cacheQuery(queries[i%len(queries)])
	}
	return state, queries
}

// BenchmarkCacheQuery is the record path at capacity: one history entry
// overwritten per call.
func BenchmarkCacheQuery(b *testing.B) {
	state, queries := historyBenchState(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.cacheQuery(queries[i%len(queries)])
	}
}

// BenchmarkPoll is one owner poll over a full history of 4 096 entries with
// the watermark at zero, 64 new recordings between polls — so each poll
// finds some entries it has placed before and some it has not.
func BenchmarkPoll(b *testing.B) {
	state, queries := historyBenchState(4096)
	docTerms := make([]string, 12)
	for i := range docTerms {
		docTerms[i] = fmt.Sprintf("term%02d", i*5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			state.cacheQuery(queries[(i*64+j)%len(queries)])
		}
		pollSink = state.poll(docTerms[i%len(docTerms)], docTerms, 0, nil)
	}
}

var pollSink pollResult
