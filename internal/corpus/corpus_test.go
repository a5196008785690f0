package corpus

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/spritedht/sprite/internal/text"
)

func TestNewDocument(t *testing.T) {
	d := NewDocument("d1", map[string]int{"alpha": 3, "beta": 2})
	if d.Length != 5 {
		t.Fatalf("Length = %d, want 5", d.Length)
	}
	if !d.Contains("alpha") || d.Contains("gamma") {
		t.Fatal("Contains misbehaved")
	}
}

func TestNewDocumentFromText(t *testing.T) {
	var a text.Analyzer
	d := NewDocumentFromText(a, "d1", "The databases are indexing. Databases!")
	if d.TF["databa"] != 2 {
		t.Fatalf("TF = %v", d.TF)
	}
	if d.Length != 3 { // databa, index, databa
		t.Fatalf("Length = %d, want 3", d.Length)
	}
}

func TestTopTermsDeterministic(t *testing.T) {
	d := NewDocument("d1", map[string]int{"b": 2, "a": 2, "c": 5, "z": 1})
	got := d.TopTerms(3)
	want := []string{"c", "a", "b"} // frequency desc, alpha tiebreak
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopTerms = %v, want %v", got, want)
	}
	if got := d.TopTerms(10); len(got) != 4 {
		t.Fatalf("TopTerms beyond vocab = %v", got)
	}
}

func TestQueryHelpers(t *testing.T) {
	q := &Query{ID: "q", Terms: []string{"b", "a"}}
	if q.Key() != "a b" {
		t.Fatalf("Key = %q, want %q", q.Key(), "a b")
	}
	// Key must not mutate the original term order.
	if q.Terms[0] != "b" {
		t.Fatal("Key mutated Terms")
	}
}

func TestCorpusStats(t *testing.T) {
	c := mustNew([]*Document{
		NewDocument("d1", map[string]int{"x": 3, "y": 1}),
		NewDocument("d2", map[string]int{"x": 2, "z": 4}),
	})
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	if c.DocFreq("x") != 2 || c.DocFreq("y") != 1 || c.DocFreq("absent") != 0 {
		t.Fatal("DocFreq wrong")
	}
	if c.freq["x"] != 5 {
		t.Fatalf("Freq(x) = %d, want 5", c.freq["x"])
	}
	if c.distribution("x") != 10 { // Freq 5 × Num 2
		t.Fatalf("Distribution(x) = %d, want 10", c.distribution("x"))
	}
	if d, ok := c.Doc("d1"); !ok || d.ID != "d1" {
		t.Fatal("Doc lookup failed")
	}
}

func TestNewRejectsDuplicateIDs(t *testing.T) {
	_, err := New([]*Document{
		NewDocument("dup", map[string]int{"a": 1}),
		NewDocument("dup", map[string]int{"b": 1}),
	})
	if err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestSimilarTerms(t *testing.T) {
	// Distributions: a=1·1=1, b=2·1=2, c=3·1=3, d=10·1=10, e=11·1=11.
	c := mustNew([]*Document{
		NewDocument("d1", map[string]int{"a": 1, "b": 2, "c": 3, "d": 10, "e": 11}),
	})
	got := c.SimilarTerms("c", 2)
	want := []string{"b", "a"} // |2-3|=1, |1-3|=2 beat |10-3|=7
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SimilarTerms(c,2) = %v, want %v", got, want)
	}
	// Never returns the probe term itself.
	for _, s := range c.SimilarTerms("d", 4) {
		if s == "d" {
			t.Fatal("SimilarTerms returned the probe term")
		}
	}
	// Request larger than vocabulary.
	if got := c.SimilarTerms("a", 100); len(got) != 4 {
		t.Fatalf("SimilarTerms overcount = %v", got)
	}
	if got := c.SimilarTerms("a", 0); got != nil {
		t.Fatalf("SimilarTerms(s=0) = %v, want nil", got)
	}
}

func TestSimilarTermsUnknownTerm(t *testing.T) {
	c := mustNew([]*Document{NewDocument("d1", map[string]int{"a": 1, "b": 5})})
	// Unknown term has Distribution 0; nearest neighbours are still returned.
	got := c.SimilarTerms("zzz", 1)
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("SimilarTerms(zzz) = %v, want [a]", got)
	}
}

func smallSynth(t *testing.T, seed int64) *Collection {
	t.Helper()
	col, err := Synthesize(SynthConfig{
		NumDocs: 200, NumTopics: 4, VocabPerTopic: 60, BackgroundVocab: 200,
		DocLenMin: 50, DocLenMax: 120, NumQueries: 12, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return col
}

func TestSynthesizeShape(t *testing.T) {
	col := smallSynth(t, 1)
	if col.Corpus.N() != 200 {
		t.Fatalf("N = %d", col.Corpus.N())
	}
	if len(col.Queries) != 12 {
		t.Fatalf("queries = %d", len(col.Queries))
	}
	for _, q := range col.Queries {
		if len(q.Terms) < 3 || len(q.Terms) > 6 {
			t.Fatalf("query %s has %d terms", q.ID, len(q.Terms))
		}
		seen := map[string]bool{}
		for _, term := range q.Terms {
			if seen[term] {
				t.Fatalf("query %s repeats term %s", q.ID, term)
			}
			seen[term] = true
		}
	}
	for id := range col.DocTopic {
		if _, ok := col.Corpus.Doc(id); !ok {
			t.Fatalf("DocTopic references unknown doc %s", id)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, b := smallSynth(t, 7), smallSynth(t, 7)
	if a.Corpus.N() != b.Corpus.N() {
		t.Fatal("corpus size differs across runs")
	}
	for i, d := range a.Corpus.Docs() {
		bd := b.Corpus.Docs()[i]
		if !reflect.DeepEqual(d.TF, bd.TF) {
			t.Fatalf("doc %d differs across identical seeds", i)
		}
	}
	for i := range a.Queries {
		if !reflect.DeepEqual(a.Queries[i].Terms, b.Queries[i].Terms) {
			t.Fatalf("query %d differs across identical seeds", i)
		}
		if !reflect.DeepEqual(a.Queries[i].Relevant, b.Queries[i].Relevant) {
			t.Fatalf("judgments for query %d differ across identical seeds", i)
		}
	}
}

func TestSynthesizeSeedsDiffer(t *testing.T) {
	a, b := smallSynth(t, 1), smallSynth(t, 2)
	same := true
	for i, d := range a.Corpus.Docs() {
		if !reflect.DeepEqual(d.TF, b.Corpus.Docs()[i].TF) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestSynthesizeQueriesHaveRelevantDocs(t *testing.T) {
	col := smallSynth(t, 3)
	for _, q := range col.Queries {
		if len(q.Relevant) == 0 {
			t.Errorf("query %s has no relevant documents", q.ID)
		}
		// Relevant docs must share the query's topic.
		z := col.QueryTopic[q.ID]
		for d := range q.Relevant {
			if col.DocTopic[d] != z {
				t.Errorf("query %s (topic %d) judged doc %s (topic %d) relevant",
					q.ID, z, d, col.DocTopic[d])
			}
		}
	}
}

func TestSynthesizeZipfSkew(t *testing.T) {
	col := smallSynth(t, 4)
	c := col.Corpus
	// The most common term should be far more frequent than the median term
	// — the hallmark of a Zipf distribution.
	terms := c.Terms()
	maxFreq, sum := 0, 0
	for _, term := range terms {
		f := c.freq[term]
		sum += f
		if f > maxFreq {
			maxFreq = f
		}
	}
	mean := sum / len(terms)
	if maxFreq < 5*mean {
		t.Fatalf("term distribution not skewed: max %d vs mean %d", maxFreq, mean)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	bad := []SynthConfig{
		{NumDocs: -1},
		{NumDocs: 10, NumTopics: -2},
		{NumDocs: 10, DocLenMin: 100, DocLenMax: 5},
		{NumDocs: 10, QueryLenMin: 8, QueryLenMax: 4},
		{NumDocs: 10, VocabPerTopic: 3, QueryLenMax: 6},
		{NumDocs: 10, TopicTermProb: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestZipfSamplerBiasedToLowRanks(t *testing.T) {
	z := newZipfSampler(100, 1.0)
	counts := make([]int, 100)
	rng := newTestRNG()
	for i := 0; i < 20000; i++ {
		counts[z.sample(rng)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d draws) not favored over rank 50 (%d draws)", counts[0], counts[50])
	}
	if counts[0] <= counts[10] {
		t.Fatalf("rank 0 (%d draws) not favored over rank 10 (%d draws)", counts[0], counts[10])
	}
}

func TestZipfSamplerCoversRange(t *testing.T) {
	z := newZipfSampler(5, 0.5)
	rng := newTestRNG()
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		v := z.sample(rng)
		if v < 0 || v >= 5 {
			t.Fatalf("sample out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("sampler never produced some ranks: %v", seen)
	}
}

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(99)) }

func TestCollectionJSONRoundTrip(t *testing.T) {
	col := smallSynth(t, 9)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, col, SynthConfig{}, false); err != nil {
		t.Fatalf("WriteCollection: %v", err)
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	if got.Corpus.N() != col.Corpus.N() {
		t.Fatalf("doc count %d != %d", got.Corpus.N(), col.Corpus.N())
	}
	for i, d := range col.Corpus.Docs() {
		gd := got.Corpus.Docs()[i]
		if gd.ID != d.ID || gd.Length != d.Length || !reflect.DeepEqual(gd.TF, d.TF) {
			t.Fatalf("doc %d mismatch after round trip", i)
		}
		if got.DocTopic[d.ID] != col.DocTopic[d.ID] {
			t.Fatalf("doc %s topic mismatch", d.ID)
		}
	}
	if len(got.Queries) != len(col.Queries) {
		t.Fatalf("query count %d != %d", len(got.Queries), len(col.Queries))
	}
	for i, q := range col.Queries {
		gq := got.Queries[i]
		if gq.ID != q.ID || !reflect.DeepEqual(gq.Terms, q.Terms) || !reflect.DeepEqual(gq.Relevant, q.Relevant) {
			t.Fatalf("query %s mismatch after round trip", q.ID)
		}
		if got.QueryTopic[q.ID] != col.QueryTopic[q.ID] {
			t.Fatalf("query %s topic mismatch", q.ID)
		}
	}
	// Global statistics must be identical too.
	for _, term := range col.Corpus.Terms()[:10] {
		if got.Corpus.distribution(term) != col.Corpus.distribution(term) {
			t.Fatalf("Distribution(%s) differs after round trip", term)
		}
	}
}

func TestReadCollectionValidation(t *testing.T) {
	bad := []string{
		`{`,                                      // malformed
		`{"documents":[]}`,                       // no docs
		`{"documents":[{"id":"","tf":{"a":1}}]}`, // empty id
		`{"documents":[{"id":"d","tf":{}}]}`,     // no terms
		`{"documents":[{"id":"d","tf":{"a":1}},{"id":"d","tf":{"b":1}}]}`,                                   // dup id
		`{"documents":[{"id":"d","tf":{"a":1}}],"queries":[{"id":"","terms":["a"]}]}`,                       // empty query id
		`{"documents":[{"id":"d","tf":{"a":1}}],"queries":[{"id":"q","terms":[]}]}`,                         // no terms
		`{"documents":[{"id":"d","tf":{"a":1}}],"queries":[{"id":"q","terms":["a"],"relevant":["ghost"]}]}`, // unknown doc
	}
	for i, s := range bad {
		if _, err := ReadCollection(strings.NewReader(s)); err == nil {
			t.Errorf("bad input %d accepted", i)
		}
	}
}

func TestReadCollectionMinimalValid(t *testing.T) {
	in := `{"documents":[{"id":"d1","topic":2,"tf":{"alpha":3,"beta":1}}],
	        "queries":[{"id":"q1","topic":2,"terms":["alpha"],"relevant":["d1"]}]}`
	col, err := ReadCollection(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	d, ok := col.Corpus.Doc("d1")
	if !ok || d.Length != 4 {
		t.Fatalf("doc not reconstructed: %+v", d)
	}
	if col.DocTopic["d1"] != 2 || col.QueryTopic["q1"] != 2 {
		t.Fatal("topics lost")
	}
	if !col.Queries[0].Relevant["d1"] {
		t.Fatal("judgments lost")
	}
}

// mustNew is New for the tests' known-good documents.
func mustNew(docs []*Document) *Corpus {
	c, err := New(docs)
	if err != nil {
		panic(err)
	}
	return c
}
