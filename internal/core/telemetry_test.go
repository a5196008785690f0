package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// telemetryNetwork builds a SPRITE network with a registry at every layer.
func telemetryNetwork(t *testing.T, peers int, cfg Config) (*Network, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	net := simnet.New(1, simnet.WithTelemetry(reg))
	ring := chord.NewRing(net, chord.Config{Telemetry: reg})
	if _, err := ring.AddNodes("p", peers); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	ring.Build()
	cfg.Telemetry = reg
	n, err := NewNetwork(ring, cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n, reg
}

func TestSearchTracedProducesSpanTree(t *testing.T) {
	n, _ := telemetryNetwork(t, 16, Config{})
	terms := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	tf := make(map[string]int, len(terms))
	for i, term := range terms {
		tf[term] = i + 1
	}
	if err := n.ShareCtx(context.Background(), "p0", doc("d1", tf)); err != nil {
		t.Fatalf("Share: %v", err)
	}
	rl, tr, err := n.SearchTracedCtx(context.Background(), "p3", terms, 5)
	if err != nil {
		t.Fatalf("SearchTraced: %v", err)
	}
	if len(rl) == 0 {
		t.Fatal("no results")
	}
	if tr == nil {
		t.Fatal("nil trace with telemetry installed")
	}
	snap := tr.Snapshot()
	if snap.Root.Name != "sprite.search" {
		t.Fatalf("root span = %q, want sprite.search", snap.Root.Name)
	}
	// The root has one child per exchange, each with a fixed name and the
	// terms as attributes, and each holding the fetch. A "batch" span is one
	// get_postings to an indexing peer the searcher's own node named, carrying
	// every term that peer holds. A "term" span is a term that went by the
	// ring: it says whether the route ended on an owner hint (one a node on
	// the way gave, so never "caller") and holds chord.hop spans when the
	// lookup left the issuing peer. On a healthy ring nothing is refused, so
	// every term is named exactly once.
	named := map[string]int{}
	batches, batchedTerms := 0, 0
	for _, ex := range snap.Root.Children {
		attrs := map[string]string{}
		var exTerms []string
		for _, a := range ex.Attrs {
			attrs[a.Key] = fmt.Sprint(a.Value)
			if a.Key == "term" {
				exTerms = append(exTerms, fmt.Sprint(a.Value))
				named[fmt.Sprint(a.Value)]++
			}
		}
		switch ex.Name {
		case "batch":
			batches++
			batchedTerms += len(exTerms)
			if len(exTerms) == 0 || attrs["indexing_peer"] == "" {
				t.Fatalf("batch span annotated %v: want its terms and its indexing peer", ex.Attrs)
			}
		case "term":
			if h := attrs["hinted"]; len(exTerms) != 1 || (h != "true" && h != "false" && h != "rejected") {
				t.Fatalf("term span annotated %v: want one term and hinted=true|false|rejected", ex.Attrs)
			}
		default:
			t.Fatalf("exchange span named %q, want the fixed name \"batch\" or \"term\"", ex.Name)
		}
		fetches := 0
		for _, c := range ex.Children {
			if c.Name == msgGetPostings {
				fetches++
			}
		}
		if fetches != 1 {
			t.Fatalf("%s span %v holds %d postings fetches, want 1", ex.Name, exTerms, fetches)
		}
	}
	for _, term := range terms {
		if named[term] != 1 {
			t.Fatalf("%d spans carry term=%q, want 1", named[term], term)
		}
	}
	if batches == 0 || batchedTerms <= batches {
		t.Fatalf("%d terms in %d batches: the searcher's own node named no indexing peer holding two of the eight", batchedTerms, batches)
	}
	if tr.Root().SpanCount() < 2 {
		t.Fatalf("span count = %d, want >= 2", tr.Root().SpanCount())
	}
}

func TestCountersAcrossLifecycle(t *testing.T) {
	n, reg := telemetryNetwork(t, 16, Config{InitialTerms: 2})
	for i := 0; i < 4; i++ {
		d := doc(fmt.Sprintf("d%d", i), map[string]int{"alpha": 5, "beta": 3, "gamma": 2})
		if err := n.ShareCtx(context.Background(), "p0", d); err != nil {
			t.Fatalf("Share: %v", err)
		}
	}
	if got := reg.Counter("sprite.index.terms_published").Value(); got != 8 {
		t.Fatalf("terms_published = %d, want 8 (4 docs x 2 initial terms)", got)
	}
	if _, err := n.SearchCtx(context.Background(), "p5", []string{"alpha", "gamma"}, 5); err != nil {
		t.Fatalf("Search: %v", err)
	}
	if got := reg.Counter("sprite.searches").Value(); got != 1 {
		t.Fatalf("sprite.searches = %d, want 1", got)
	}
	if reg.Counter("sprite.postings.served").Value() == 0 {
		t.Fatal("sprite.postings.served did not tick")
	}
	if reg.Counter("sprite.queries.cached").Value() == 0 {
		t.Fatal("sprite.queries.cached did not tick")
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatalf("LearnAll: %v", err)
	}
	if reg.Counter("sprite.learn.rounds").Value() == 0 {
		t.Fatal("sprite.learn.rounds did not tick")
	}
	if reg.Counter("sprite.polls.served").Value() == 0 {
		t.Fatal("sprite.polls.served did not tick")
	}
	if _, _, err := n.SearchExpanded("p2", []string{"alpha"}, 5, ExpandOptions{}); err != nil {
		t.Fatalf("SearchExpanded: %v", err)
	}
	if got := reg.Counter("sprite.search.expansions").Value(); got != 1 {
		t.Fatalf("sprite.search.expansions = %d, want 1", got)
	}
}

func TestSearchMissCountsSkippedOrMiss(t *testing.T) {
	n, reg := telemetryNetwork(t, 8, Config{})
	if err := n.ShareCtx(context.Background(), "p0", doc("d1", map[string]int{"alpha": 2})); err != nil {
		t.Fatalf("Share: %v", err)
	}
	if _, err := n.SearchCtx(context.Background(), "p1", []string{"nosuchterm"}, 5); err != nil {
		t.Fatalf("Search: %v", err)
	}
	if reg.Counter("sprite.postings.misses").Value() == 0 {
		t.Fatal("sprite.postings.misses did not tick for an unknown term")
	}
}
