package sprite

import (
	"context"
	"errors"
	"testing"
)

func TestSearchSimilarFacade(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 4, Sketch: SketchOptions{Enabled: true}})
	shares := []struct{ peer, id, text string }{
		{"peer0", "doc-chord", "Chord is a scalable peer-to-peer lookup protocol for distributed hash tables"},
		{"peer1", "doc-pastry", "Pastry is a scalable peer-to-peer overlay routing protocol for distributed systems"},
		{"peer2", "doc-porter", "The Porter stemmer strips suffixes from English words for text processing"},
	}
	for _, s := range shares {
		if err := n.ShareCtx(context.Background(), s.peer, s.id, s.text); err != nil {
			t.Fatalf("Share %s: %v", s.id, err)
		}
	}
	res, err := n.SearchSimilarCtx(context.Background(), "peer3", "doc-chord", 2)
	if err != nil {
		t.Fatalf("SearchSimilar: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no similar documents found")
	}
	// The overlay-routing doc must beat the stemming doc for doc-chord, and
	// the query doc must not be among its own results.
	if res[0].DocID != "doc-pastry" {
		t.Fatalf("top similar = %+v, want doc-pastry first", res)
	}
	if res[0].Owner != "peer1" {
		t.Fatalf("Owner = %q, want peer1", res[0].Owner)
	}
	for _, r := range res {
		if r.DocID == "doc-chord" {
			t.Fatalf("query doc in its own results: %+v", res)
		}
	}

	if _, err := n.SearchSimilarCtx(context.Background(), "peer3", "no-such-doc", 2); !errors.Is(err, ErrNoSuchDoc) {
		t.Fatalf("unknown doc: err = %v, want ErrNoSuchDoc", err)
	}
}

func TestSearchSimilarDisabledFacade(t *testing.T) {
	n := newNet(t, Options{Peers: 4, Seed: 4})
	if err := n.ShareCtx(context.Background(), "peer0", "d", "some document text here"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SearchSimilarCtx(context.Background(), "peer1", "d", 3); !errors.Is(err, ErrSketchDisabled) {
		t.Fatalf("err = %v, want ErrSketchDisabled", err)
	}
}
