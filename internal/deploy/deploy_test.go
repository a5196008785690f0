package deploy

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chordid"
)

func mustNew(t *testing.T, s Spec) *Deployment {
	t.Helper()
	d, err := New(s)
	if err != nil {
		t.Fatalf("New(%+v): %v", s, err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestOneSpecEveryTransport builds one spec on the simulator with the wall
// clock, with the virtual clock, and over TCP: each has every peer, each
// lists its addresses in Net.Peers() order, and each exposes only the
// handles its transport and clock have.
func TestOneSpecEveryTransport(t *testing.T) {
	base := Spec{Peers: 5, Prefix: "p", Seed: 3}
	for _, tc := range []struct {
		name         string
		tcp, virtual bool
	}{{"simnet", false, false}, {"virtual", false, true}, {"tcp", true, false}} {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			s.TCP, s.Virtual = tc.tcp, tc.virtual
			d := mustNew(t, s)
			peers := d.Net.Peers()
			if len(peers) != s.Peers || len(d.Addrs) != s.Peers || d.Ring.Size() != s.Peers {
				t.Fatalf("%d core peers, %d addrs, %d ring nodes; want %d", len(peers), len(d.Addrs), d.Ring.Size(), s.Peers)
			}
			for i, p := range peers {
				if d.Addrs[i] != p.Addr() {
					t.Fatalf("Addrs[%d] = %s, Net.Peers()[%d] = %s", i, d.Addrs[i], i, p.Addr())
				}
				if named := strings.HasPrefix(string(p.Addr()), "p"); named == tc.tcp {
					t.Errorf("peer %s: prefix-named = %v on tcp = %v", p.Addr(), named, tc.tcp)
				}
			}
			if (d.TCP != nil) != tc.tcp || (d.Sim != nil) == tc.tcp || (d.Clock != nil) != tc.virtual {
				t.Errorf("TCP %v, Sim %v, Clock %v", d.TCP != nil, d.Sim != nil, d.Clock != nil)
			}
		})
	}
}

func TestVirtualTCPRefused(t *testing.T) {
	if _, err := New(Spec{Peers: 2, TCP: true, Virtual: true}); err == nil {
		t.Fatal("virtual time over TCP accepted")
	}
}

func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := New(Spec{Peers: 4, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSameSpecSameRing: two builds of one simulator spec place the same
// nodes with the same finger tables.
func TestSameSpecSameRing(t *testing.T) {
	shape := func() (ids []chordid.ID, fingers []int) {
		for _, n := range mustNew(t, Spec{Peers: 32, Prefix: "peer", Seed: 7, Virtual: true}).Ring.Nodes() {
			ids = append(ids, n.ID())
			fingers = append(fingers, n.FingerCount())
		}
		return ids, fingers
	}
	ids1, f1 := shape()
	ids2, f2 := shape()
	if !reflect.DeepEqual(ids1, ids2) || !reflect.DeepEqual(f1, f2) {
		t.Fatalf("two builds differ:\nids %v\n vs %v\nfingers %v\n     vs %v", ids1, ids2, f1, f2)
	}
}
