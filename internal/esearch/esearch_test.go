package esearch

import (
	"fmt"
	"testing"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
)

func testCorpus() *corpus.Corpus {
	return mustCorpus([]*corpus.Document{
		corpus.NewDocument("d1", map[string]int{"alpha": 9, "beta": 8, "gamma": 2, "delta": 1}),
		corpus.NewDocument("d2", map[string]int{"alpha": 3, "epsilon": 7, "zeta": 5}),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testCorpus(), 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(testCorpus(), 2, 1); err == nil {
		t.Fatal("N=1 accepted")
	}
	s, err := New(testCorpus(), 2, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.K() != 2 {
		t.Fatalf("K = %d", s.K())
	}
}

func TestIndexesOnlyTopK(t *testing.T) {
	s, err := New(testCorpus(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// d1's top-2: alpha, beta. gamma/delta must not be indexed.
	if s.Index().DocFreq("alpha") == 0 || s.Index().DocFreq("beta") == 0 {
		t.Fatal("top terms not indexed")
	}
	if s.Index().DocFreq("gamma") != 0 || s.Index().DocFreq("delta") != 0 {
		t.Fatal("non-top terms leaked into index")
	}
	if got := s.Index().NumPostings(); got != 4 {
		t.Fatalf("postings = %d, want 4 (2 docs × top-2)", got)
	}
}

func TestStaticSchemeMissesLowFrequencyTerms(t *testing.T) {
	// The defining weakness of the static scheme (§6.3): a query on a term
	// the document contains, but which is not among its top-k, misses it.
	s, err := New(testCorpus(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rl := s.Search([]string{"gamma"}, 10); len(rl) != 0 {
		t.Fatalf("gamma (rank 3 in d1) should be unfindable, got %v", rl)
	}
	// alpha is rank 1 in d1 but only rank 3 in d2 — at k=2 the static index
	// finds d1 and misses d2 entirely.
	if rl := s.Search([]string{"alpha"}, 10); len(rl) != 1 || rl[0].Doc != "d1" {
		t.Fatalf("alpha at k=2 should match only d1, got %v", rl)
	}
	s3, err := New(testCorpus(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rl := s3.Search([]string{"alpha"}, 10); len(rl) != 2 {
		t.Fatalf("alpha at k=3 should match both docs, got %v", rl)
	}
}

func TestSearchRanking(t *testing.T) {
	s, err := New(testCorpus(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rl := s.Search([]string{"alpha"}, 10)
	if len(rl) != 2 || rl[0].Doc != "d1" {
		t.Fatalf("ranking = %v, want d1 first (higher normalized tf)", rl)
	}
}

func TestSearchTopKTruncation(t *testing.T) {
	s, err := New(testCorpus(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rl := s.Search([]string{"alpha"}, 1); len(rl) != 1 {
		t.Fatalf("Search(k=1) = %v", rl)
	}
}

func TestLargerKIndexesMore(t *testing.T) {
	s2, _ := New(testCorpus(), 2, 0)
	s4, _ := New(testCorpus(), 4, 0)
	if s4.Index().NumPostings() <= s2.Index().NumPostings() {
		t.Fatal("larger k did not grow the index")
	}
	// With k=4 every term of d1 is indexed, so gamma becomes findable.
	if rl := s4.Search([]string{"gamma"}, 10); len(rl) != 1 {
		t.Fatalf("gamma should be findable at k=4, got %v", rl)
	}
}

// tieCorpus builds documents that are exact clones term-for-term, so every
// query scores them bit-identically and ranking order is decided purely by
// the tie-break rule.
func tieCorpus(n int) *corpus.Corpus {
	docs := make([]*corpus.Document, 0, n)
	for i := 0; i < n; i++ {
		docs = append(docs, corpus.NewDocument(
			index.DocID(fmt.Sprintf("d%02d", i)),
			map[string]int{"alpha": 5, "beta": 3, "gamma": 2},
		))
	}
	return mustCorpus(docs)
}

// TestSearchTieBreakByDocID: exact score ties must order by ascending DocID —
// the RankedList contract — independent of insertion order or map iteration.
func TestSearchTieBreakByDocID(t *testing.T) {
	s, err := New(tieCorpus(8), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rl := s.Search([]string{"alpha", "beta"}, 5)
	if len(rl) != 5 {
		t.Fatalf("got %d hits, want 5", len(rl))
	}
	for i, h := range rl {
		if want := index.DocID(fmt.Sprintf("d%02d", i)); h.Doc != want {
			t.Fatalf("rank %d = %s, want %s (ties must break by DocID): %v", i, h.Doc, want, rl)
		}
		if h.Score != rl[0].Score {
			t.Fatalf("scores of identical docs differ: %v", rl)
		}
	}
}

// TestSearchDeterministicAcrossRuns: repeated searches must return
// bit-identical rankings. The fold runs in first-occurrence term order, not
// map order, so float summation order — and therefore every ULP of every
// score — is fixed. A regression here shows up as flaky tie order.
func TestSearchDeterministicAcrossRuns(t *testing.T) {
	s, err := New(tieCorpus(16), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	query := []string{"gamma", "alpha", "beta", "alpha"}
	first := s.Search(query, 10)
	for run := 1; run < 200; run++ {
		got := s.Search(query, 10)
		if len(got) != len(first) {
			t.Fatalf("run %d: %d hits vs %d", run, len(got), len(first))
		}
		for i := range got {
			if got[i].Doc != first[i].Doc || got[i].Score != first[i].Score {
				t.Fatalf("run %d rank %d: (%s, %v) vs (%s, %v)",
					run, i, got[i].Doc, got[i].Score, first[i].Doc, first[i].Score)
			}
		}
	}
}

// mustCorpus is corpus.New for the tests' known-good documents.
func mustCorpus(docs []*corpus.Document) *corpus.Corpus {
	c, err := corpus.New(docs)
	if err != nil {
		panic(err)
	}
	return c
}
