package index_test

import (
	"testing"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
)

// Indexing a corpus the way central.New does — every term of every document,
// documents in ID order, one owner — is the bulk-load order: each posting
// lands above its list's last one. None of it may decode a block.
func TestCorpusIngestNeverRebuilds(t *testing.T) {
	col, err := corpus.Synthesize(corpus.SynthConfig{NumDocs: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.NewInverted()
	for _, d := range col.Corpus.Docs() {
		for term, f := range d.TF {
			ix.Add(term, index.Posting{Doc: d.ID, Owner: "central", Freq: f, DocLen: d.Length})
		}
	}
	if st := ix.Stats(); st.Docs != 1500 || st.Blocks <= st.Terms {
		t.Fatalf("stats %+v: want 1500 docs and some list longer than one block", st)
	}
	if n := ix.Rebuilds(); n != 0 {
		t.Fatalf("%d of %d adds went through decode → rebuild, want 0", n, ix.NumPostings())
	}
}
