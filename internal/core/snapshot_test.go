package core

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/simnet"
)

// snapshotFixture builds a network with trained, learned state worth saving.
func snapshotFixture(t *testing.T) *Network {
	t.Helper()
	n := testNetwork(t, 8, Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 6, ReplicationFactor: 1})
	docs := []struct {
		id string
		tf map[string]int
	}{
		{"d1", map[string]int{"storage": 5, "engine": 3, "compaction": 1}},
		{"d2", map[string]int{"lookup": 4, "routing": 2, "finger": 1}},
		{"d3", map[string]int{"stemming": 3, "suffix": 2, "porter": 1}},
	}
	for i, d := range docs {
		owner := n.Peers()[i%4].Addr()
		if err := n.Share(owner, doc(d.id, d.tf)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range [][]string{
		{"storage", "compaction"}, {"lookup", "finger"}, {"stemming", "porter"},
		{"storage", "compaction"}, {"engine", "storage"},
	} {
		if err := n.InsertQuery("p5", q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.LearnAll(); err != nil {
		t.Fatal(err)
	}
	return n
}

// freshTwin builds a new, empty network over an identical ring.
func freshTwin(t *testing.T) *Network {
	t.Helper()
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("p", 8); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 6, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	restored := freshTwin(t)
	if err := restored.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// Documents, index terms, and postings must match exactly.
	if !reflect.DeepEqual(orig.Documents(), restored.Documents()) {
		t.Fatalf("doc order differs: %v vs %v", orig.Documents(), restored.Documents())
	}
	for _, id := range orig.Documents() {
		a, _ := orig.IndexedTerms(id)
		b, _ := restored.IndexedTerms(id)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("indexed terms for %s differ: %v vs %v", id, a, b)
		}
	}
	// Every poll watermark must come back with the peer that issued it.
	for i, p := range orig.Peers() {
		for id, st := range p.owned {
			got := restored.Peers()[i].owned[id].since
			if len(st.since) == 0 || !reflect.DeepEqual(got, st.since) {
				t.Fatalf("poll watermarks of %s differ after restore: %v vs %v", id, got, st.since)
			}
			for term, mark := range got {
				if mark.At != st.publishedAt[term] {
					t.Fatalf("watermark of %s/%q belongs to %q, posting is at %q", id, term, mark.At, st.publishedAt[term])
				}
			}
		}
	}
	if orig.TotalPostings() != restored.TotalPostings() {
		t.Fatalf("postings differ: %d vs %d", orig.TotalPostings(), restored.TotalPostings())
	}
	// Histories must match.
	for i, p := range orig.Peers() {
		if got := restored.Peers()[i].HistoryLen(); got != p.HistoryLen() {
			t.Fatalf("history length differs at %s: %d vs %d", p.Addr(), got, p.HistoryLen())
		}
	}

	// Behaviour must match: identical searches...
	for _, q := range [][]string{{"storage"}, {"compaction"}, {"finger", "lookup"}} {
		a, err := orig.Search("p3", q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Search("p3", q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("search %v differs after restore: %v vs %v", q, a, b)
		}
	}
	// ...and identical continued learning (watermarks survived).
	ca, err := orig.LearnAll()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := restored.LearnAll()
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("post-restore learning diverged: %d vs %d changes", ca, cb)
	}
}

func TestRestoreValidation(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong peer set.
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	ring.AddNodes("other", 8)
	ring.Build()
	wrong, err := NewNetwork(ring, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore onto mismatched peer set succeeded")
	}

	// Wrong peer count.
	net2 := simnet.New(1)
	ring2 := chord.NewRing(net2, chord.Config{})
	ring2.AddNodes("p", 4)
	ring2.Build()
	small, err := NewNetwork(ring2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore onto smaller network succeeded")
	}

	// Garbage input.
	fresh := freshTwin(t)
	if err := fresh.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage restore succeeded")
	}
}

func TestRestoreDiscardsPriorState(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	target := freshTwin(t)
	// Give the target some state that must vanish.
	if err := target.Share("p0", doc("stale", map[string]int{"leftover": 1})); err != nil {
		t.Fatal(err)
	}
	if err := target.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := target.IndexedTerms("stale"); err == nil {
		t.Fatal("pre-restore document survived")
	}
	if rl, _ := target.Search("p1", []string{"leftover"}, 5); len(rl) != 0 {
		t.Fatalf("pre-restore postings survived: %v", rl)
	}
}
