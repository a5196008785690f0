package chord

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// buildTelemetryRing builds a ring with a registry installed at both the
// transport and overlay layers.
func buildTelemetryRing(t *testing.T, n int) (*Ring, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	net := simnet.New(42, simnet.WithTelemetry(reg))
	r := NewRing(net, Config{Telemetry: reg})
	if _, err := r.AddNodes("peer", n); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	r.Build()
	return r, reg
}

func TestLookupRecordsHopHistogram(t *testing.T) {
	r, reg := buildTelemetryRing(t, 64)
	nodes := r.Nodes()
	const lookups = 50
	for i := 0; i < lookups; i++ {
		if _, _, err := nodes[i%len(nodes)].Lookup(chordid.HashKey(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
	if got := reg.Counter("chord.lookups").Value(); got != lookups {
		t.Fatalf("chord.lookups = %d, want %d", got, lookups)
	}
	h := reg.Histogram("chord.lookup.hops")
	if h.Count() != lookups {
		t.Fatalf("hop histogram count = %d, want %d", h.Count(), lookups)
	}
	// O(log N) routing: on a 64-node ring every lookup resolves well under
	// 64 hops, and some lookup needs at least one hop.
	if h.Max() >= 64 || h.Max() < 1 {
		t.Fatalf("hop histogram max = %d, want in [1, 64)", h.Max())
	}
	if reg.Counter("simnet.calls.chord.next_hop").Value() == 0 {
		t.Fatal("transport-level next_hop accounting did not tick")
	}
}

func TestLookupTracedBuildsHopSpans(t *testing.T) {
	r, reg := buildTelemetryRing(t, 64)
	nodes := r.Nodes()
	tr := reg.StartTrace("lookup-test")
	var hops int
	var err error
	for i := 0; i < 20; i++ {
		// Find a key that needs at least one remote hop so the span tree is
		// non-trivial.
		_, hops, err = nodes[0].LookupExcluding(context.Background(), chordid.HashKey(fmt.Sprintf("k%d", i)), nil, tr.Root())
		if err != nil {
			t.Fatalf("LookupExcluding: %v", err)
		}
		if hops > 0 {
			break
		}
	}
	if hops == 0 {
		t.Fatal("no multi-hop lookup found in 20 keys")
	}
	tr.Finish()
	snap := tr.Snapshot()
	var hopSpans int
	var walk func(s telemetry.SpanSnapshot)
	walk = func(s telemetry.SpanSnapshot) {
		if s.Name == "chord.hop" {
			hopSpans++
			var hasTo bool
			for _, a := range s.Attrs {
				if a.Key == "to" && strings.HasPrefix(fmt.Sprint(a.Value), "peer") {
					hasTo = true
				}
			}
			if !hasTo {
				t.Fatalf("chord.hop span missing to= attr: %+v", s.Attrs)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(snap.Root)
	if hopSpans == 0 {
		t.Fatal("trace has no chord.hop spans")
	}
}

func TestStabilizeAndRepairCountersTick(t *testing.T) {
	r, reg := buildTelemetryRing(t, 16)
	r.Stabilize(3)
	if got := reg.Counter("chord.stabilize.rounds").Value(); got == 0 {
		t.Fatal("chord.stabilize.rounds did not tick")
	}
}
