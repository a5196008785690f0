package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spritedht/sprite/internal/index"
)

// historyBenchState returns an indexing state whose history of cap
// issuances cycles through distinct four-term queries over a 64-term
// vocabulary. At 512 distinct it is a worst case: the benchmark's workloads
// leave at most 173 distinct queries at one peer (postings), and 75 on mixed.
func historyBenchState(cap, distinct int) (*indexingState, [][]string) {
	rng := rand.New(rand.NewSource(1))
	queries := make([][]string, distinct)
	for i := range queries {
		q := make([]string, 4)
		for j := range q {
			q[j] = fmt.Sprintf("term%02d", rng.Intn(64))
		}
		queries[i] = q
	}
	state := &indexingState{ix: index.NewInverted(), history: history{cap: cap}}
	for i := 0; i < cap; i++ {
		state.cacheQuery(queries[i%len(queries)])
	}
	return state, queries
}

// BenchmarkCacheQuery is the record path at capacity: one issuance evicted
// and one recorded per call.
func BenchmarkCacheQuery(b *testing.B) {
	state, queries := historyBenchState(4096, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.cacheQuery(queries[i%len(queries)])
	}
}

// benchmarkPoll is one owner poll over a full history of 4 096 issuances of
// distinct queries with the watermark at zero, 64 new recordings between
// polls — so each poll finds some queries it has placed before and some it
// has not.
func benchmarkPoll(b *testing.B, distinct int) {
	state, queries := historyBenchState(4096, distinct)
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
		pollSink = state.poll(docTerms[i%len(docTerms)], "d", docTerms, 0, nil)
	}
}

// BenchmarkPoll polls a history of 512 distinct queries.
func BenchmarkPoll(b *testing.B) { benchmarkPoll(b, 512) }

// BenchmarkPollRepeats polls a history of 75 distinct queries, the most the
// benchmark's mixed workload leaves at one peer.
func BenchmarkPollRepeats(b *testing.B) { benchmarkPoll(b, 75) }

var pollSink pollResult
