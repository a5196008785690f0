package core

import (
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
	if err := n.Share("p0", doc("d1", tf)); err != nil {
		t.Fatalf("Share: %v", err)
	}
	rl, tr, err := n.SearchTraced("p3", terms, 5)
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
	if len(snap.Root.Children) != len(terms) {
		t.Fatalf("root has %d term spans, want %d", len(snap.Root.Children), len(terms))
	}
	// Each term span has a fixed name with the term as an attribute, says
	// whether the route ended on an owner hint (one a node on the way gave: a
	// search brings none of its own, so never "caller"), and holds the fetch
	// (and chord.hop spans when the lookup left the issuing peer) — for
	// deliveries sent on a hint like for any other.
	named := map[string]bool{}
	hintedFetches := 0
	for _, term := range snap.Root.Children {
		if term.Name != "term" {
			t.Fatalf("term span named %q, want the fixed name \"term\"", term.Name)
		}
		attrs := map[string]string{}
		for _, a := range term.Attrs {
			attrs[a.Key] = fmt.Sprint(a.Value)
		}
		named[attrs["term"]] = true
		if h := attrs["hinted"]; h != "true" && h != "false" && h != "rejected" {
			t.Fatalf("term span %q annotated hinted=%q", attrs["term"], h)
		}
		var fetch bool
		for _, c := range term.Children {
			if c.Name == msgGetPostings {
				fetch = true
			}
		}
		if !fetch {
			t.Fatalf("term span %q (hinted=%s) has no postings-fetch child", attrs["term"], attrs["hinted"])
		}
		if attrs["hinted"] == "true" {
			hintedFetches++
		}
	}
	for _, term := range terms {
		if !named[term] {
			t.Fatalf("no span carries term=%q", term)
		}
	}
	if hintedFetches == 0 {
		t.Fatal("none of the eight fetches was delivered on an owner hint")
	}
	if tr.Root().SpanCount() < 2 {
		t.Fatalf("span count = %d, want >= 2", tr.Root().SpanCount())
	}
}

func TestCountersAcrossLifecycle(t *testing.T) {
	n, reg := telemetryNetwork(t, 16, Config{InitialTerms: 2})
	for i := 0; i < 4; i++ {
		d := doc(fmt.Sprintf("d%d", i), map[string]int{"alpha": 5, "beta": 3, "gamma": 2})
		if err := n.Share("p0", d); err != nil {
			t.Fatalf("Share: %v", err)
		}
	}
	if got := reg.Counter("sprite.index.terms_published").Value(); got != 8 {
		t.Fatalf("terms_published = %d, want 8 (4 docs x 2 initial terms)", got)
	}
	if _, err := n.Search("p5", []string{"alpha", "gamma"}, 5); err != nil {
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
	if _, err := n.LearnAll(); err != nil {
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
	if err := n.Share("p0", doc("d1", map[string]int{"alpha": 2})); err != nil {
		t.Fatalf("Share: %v", err)
	}
	if _, err := n.Search("p1", []string{"nosuchterm"}, 5); err != nil {
		t.Fatalf("Search: %v", err)
	}
	if reg.Counter("sprite.postings.misses").Value() == 0 {
		t.Fatal("sprite.postings.misses did not tick for an unknown term")
	}
}
