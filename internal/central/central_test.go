package central

import (
	"testing"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/ir"
)

func testCorpus() *corpus.Corpus {
	return mustCorpus([]*corpus.Document{
		// d1 is about chord/dht; d2 about chord/music; d3 background.
		corpus.NewDocument("d1", map[string]int{"chord": 5, "dht": 4, "peer": 3, "net": 1}),
		corpus.NewDocument("d2", map[string]int{"chord": 4, "music": 6, "guitar": 2}),
		corpus.NewDocument("d3", map[string]int{"net": 5, "peer": 2, "cable": 3}),
	})
}

func TestRankPrefersMatchingDocs(t *testing.T) {
	s := New(testCorpus())
	rl := s.Rank([]string{"chord", "dht"})
	if len(rl) != 2 {
		t.Fatalf("ranked %d docs, want 2 (d1, d2)", len(rl))
	}
	if rl[0].Doc != "d1" {
		t.Fatalf("top doc = %s, want d1 (matches both terms)", rl[0].Doc)
	}
	if rl[0].Score <= rl[1].Score {
		t.Fatal("scores not descending")
	}
}

func TestRankIDFDemotesCommonTerms(t *testing.T) {
	s := New(testCorpus())
	// "peer" appears in d1 and d3; "dht" only in d1. A query for "dht"
	// should score d1 higher than a query for "peer" does, because dht is
	// rarer (higher IDF) even though peer's tf in d1 is similar.
	dht := s.Rank([]string{"dht"})
	peer := s.Rank([]string{"peer"})
	if dht[0].Doc != "d1" {
		t.Fatalf("dht top = %s", dht[0].Doc)
	}
	var peerD1 float64
	for _, h := range peer {
		if h.Doc == "d1" {
			peerD1 = h.Score
		}
	}
	if dht[0].Score <= peerD1 {
		t.Fatalf("IDF not applied: dht score %v <= peer score %v", dht[0].Score, peerD1)
	}
}

func TestRankUnknownTerm(t *testing.T) {
	s := New(testCorpus())
	if rl := s.Rank([]string{"zzz"}); len(rl) != 0 {
		t.Fatalf("unknown term ranked %d docs", len(rl))
	}
	if rl := s.Rank(nil); len(rl) != 0 {
		t.Fatalf("empty query ranked %d docs", len(rl))
	}
}

func TestSearchTruncates(t *testing.T) {
	s := New(testCorpus())
	rl := s.Search([]string{"peer", "net"}, 1)
	if len(rl) != 1 {
		t.Fatalf("Search k=1 returned %d", len(rl))
	}
}

func TestRepeatedQueryTermWeighsMore(t *testing.T) {
	s := New(testCorpus())
	single := s.Rank([]string{"chord", "net"})
	double := s.Rank([]string{"chord", "chord", "net"})
	// Repeating "chord" should shift weight toward chord-heavy d1/d2
	// relative to net-heavy d3.
	rank := func(rl ir.RankedList, doc string) int {
		for i, h := range rl {
			if string(h.Doc) == doc {
				return i
			}
		}
		return len(rl)
	}
	if rank(double, "d3") < rank(single, "d3") {
		t.Fatal("repeating a query term improved an unrelated doc's rank")
	}
}

func TestIndexCoversAllTerms(t *testing.T) {
	c := testCorpus()
	s := New(c)
	// The centralized system indexes every term of every document (§1's
	// "impractical in a distributed setting" baseline).
	want := 0
	for _, d := range c.Docs() {
		want += len(d.TF)
	}
	if got := s.Index().NumPostings(); got != want {
		t.Fatalf("postings = %d, want %d (all terms)", got, want)
	}
	if s.Corpus() != c {
		t.Fatal("Corpus accessor broken")
	}
}

func TestCentralMatchesExactDF(t *testing.T) {
	c := testCorpus()
	s := New(c)
	if got := s.Index().DocFreq("chord"); got != c.DocFreq("chord") {
		t.Fatalf("index df %d != corpus df %d", got, c.DocFreq("chord"))
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
