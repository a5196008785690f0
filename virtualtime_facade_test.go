package sprite

import (
	"context"
	"strings"
	"testing"
)

// driveSession shares, learns, and searches over one network, running under
// the virtual clock when the network has one. It returns the search results
// rendered as a comparable string.
func driveSession(t *testing.T, n *Network) string {
	t.Helper()
	var out string
	body := func() {
		docs := []struct{ id, text string }{
			{"doc-dht", "distributed hash tables route lookups in logarithmic hops"},
			{"doc-rank", "vector space ranking weighs terms by frequency"},
			{"doc-learn", "learning promotes queried terms into the index"},
		}
		peers := n.Peers()
		for i, d := range docs {
			if err := n.Share(peers[i%len(peers)], d.id, d.text); err != nil {
				t.Errorf("Share %s: %v", d.id, err)
				return
			}
		}
		if _, err := n.LearnCtx(context.Background()); err != nil {
			t.Errorf("Learn: %v", err)
			return
		}
		res, err := n.Search(peers[0], "ranking terms frequency", 5)
		if err != nil {
			t.Errorf("Search: %v", err)
			return
		}
		var b strings.Builder
		for _, r := range res {
			b.WriteString(r.DocID)
			b.WriteByte(' ')
		}
		out = b.String()
	}
	if clk := n.VirtualClock(); clk != nil {
		clk.Run(body)
	} else {
		body()
	}
	return out
}

func TestVirtualTimeOption(t *testing.T) {
	wall := newNet(t, Options{Peers: 8, Seed: 11})
	if wall.VirtualClock() != nil {
		t.Fatal("wall-clock network reports a virtual clock")
	}
	virt := newNet(t, Options{Peers: 8, Seed: 11, VirtualTime: true})
	clk := virt.VirtualClock()
	if clk == nil {
		t.Fatal("VirtualTime network has no virtual clock")
	}
	// The same seed must produce the same results regardless of clock — the
	// virtual clock changes how time passes, never what is retrieved.
	if w, v := driveSession(t, wall), driveSession(t, virt); w != v || w == "" {
		t.Fatalf("results moved with the clock: wall %q virtual %q", w, v)
	}
}

func TestVirtualTimeRejectsTCP(t *testing.T) {
	if _, err := New(Options{Peers: 4, VirtualTime: true, TCP: true}); err == nil {
		t.Fatal("VirtualTime+TCP accepted; virtual time cannot schedule a real network")
	}
}
