package sprite

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestFullLifecycle exercises every public capability in one coherent
// scenario: a small library of documents is shared, searched, learned over,
// expanded, checkpointed, damaged by churn, healed by refresh, and finally
// partially withdrawn — asserting the visible behaviour at each step.
func TestFullLifecycle(t *testing.T) {
	net := newNet(t, Options{
		Peers:             16,
		Seed:              77,
		InitialTerms:      2,
		TermsPerIteration: 3,
		MaxIndexTerms:     8,
		Replicas:          1,
	})

	// --- Share a small library.
	// Texts repeat their salient words so the 2-term frequency pick indexes
	// them (consensus for raft/paxos, chord, bloom).
	library := map[string]string{
		"raft":  "raft consensus: the raft consensus algorithm elects a leader and replicates an ordered log",
		"paxos": "paxos consensus: the paxos consensus protocol uses proposers acceptors and ballots to agree",
		"chord": "chord lookup: the chord lookup protocol routes through finger tables over a hashing ring",
		"bloom": "bloom filters: a bloom filter trades false positives for compact set membership",
	}
	peers := net.Peers()
	i := 0
	for id, text := range library {
		if err := net.Share(peers[i%len(peers)], id, text); err != nil {
			t.Fatalf("share %s: %v", id, err)
		}
		i++
	}
	if s := net.Stats(); s.Postings != 4*2 {
		t.Fatalf("initial postings = %d, want 8 (4 docs × 2 terms)", s.Postings)
	}

	// --- Search on initially indexed terms works...
	res, err := net.Search(peers[9], "consensus", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("consensus should match raft and paxos: %v", res)
	}

	// --- ...and search on deep terms misses until users query them.
	if res, _ = net.Search(peers[9], "finger tables", 10); len(res) != 0 {
		// "finger" may or may not be in chord's top-2; accept either but
		// remember the state for the learning assertion below.
		t.Logf("finger already indexed initially: %v", res)
	}
	// Users pair known terms with deep ones; the network remembers.
	for j := 0; j < 3; j++ {
		if _, err := net.Search(peers[j], "chord finger ring", 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.LearnCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err = net.Search(peers[9], "finger", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != "chord" {
		t.Fatalf("learning did not surface 'finger': %v", res)
	}

	// --- Expanded search pulls in related vocabulary.
	exp, terms, err := net.SearchExpanded(peers[4], "ballots", 10, Expansion{Terms: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp) == 0 || len(terms) == 0 {
		t.Fatalf("expansion degenerate: %v / %v", exp, terms)
	}

	// --- Checkpoint.
	var snap bytes.Buffer
	if err := net.Save(&snap); err != nil {
		t.Fatal(err)
	}

	// --- Churn: fail a third of the peers; replicas keep queries working.
	for _, victim := range peers[4:9] {
		net.FailPeer(victim)
	}
	afterFail, err := net.Search(peers[0], "consensus", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(afterFail) == 0 {
		t.Fatal("replication failed to keep 'consensus' findable")
	}

	// --- Recover and heal: stabilize the overlay, refresh the entries.
	for _, victim := range peers[4:9] {
		net.RecoverPeer(victim)
	}
	net.Stabilize(100)
	if _, err := net.Refresh(); err != nil {
		t.Fatal(err)
	}
	res, err = net.Search(peers[9], "finger", 10)
	if err != nil || len(res) != 1 {
		t.Fatalf("post-heal search broken: %v %v", res, err)
	}

	// --- Withdraw a document; it vanishes everywhere.
	if err := net.Unshare("bloom"); err != nil {
		t.Fatal(err)
	}
	if res, _ := net.Search(peers[2], "bloom filters", 10); len(res) != 0 {
		t.Fatalf("unshared document still findable: %v", res)
	}

	// --- Restore the checkpoint: bloom is back, learning state intact.
	fresh := newNet(t, Options{
		Peers:             16,
		Seed:              77,
		InitialTerms:      2,
		TermsPerIteration: 3,
		MaxIndexTerms:     8,
		Replicas:          1,
	})
	if err := fresh.Load(&snap); err != nil {
		t.Fatal(err)
	}
	res, err = fresh.Search(fresh.Peers()[2], "bloom", 10)
	if err != nil || len(res) != 1 {
		t.Fatalf("restored network lost bloom: %v %v", res, err)
	}
	chordTerms, _ := fresh.IndexedTerms("chord")
	if !contains(chordTerms, "finger") {
		t.Fatalf("restored network lost learned term: %v", chordTerms)
	}
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// TestLifecycleDeterminism runs a multi-phase scenario twice end-to-end and
// demands bit-identical observable behaviour — the reproducibility guarantee
// the experiment harness rests on.
func TestLifecycleDeterminism(t *testing.T) {
	run := func() string {
		net := newNet(t, Options{Peers: 12, Seed: 55, InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 6})
		var out strings.Builder
		for d := 0; d < 10; d++ {
			id := fmt.Sprintf("doc%d", d)
			text := fmt.Sprintf("subject%d topic%d detail%d shared vocabulary corpus", d, d%3, d%5)
			if err := net.Share(net.Peers()[d%12], id, text); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 8; q++ {
			res, err := net.Search(net.Peers()[(q*5)%12], fmt.Sprintf("topic%d vocabulary", q%3), 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				fmt.Fprintf(&out, "%s:%.6f;", r.DocID, r.Score)
			}
			out.WriteByte('\n')
		}
		changes, err := net.LearnCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "changes=%d\n", changes)
		for d := 0; d < 10; d++ {
			terms, _ := net.IndexedTerms(fmt.Sprintf("doc%d", d))
			fmt.Fprintf(&out, "%v\n", terms)
		}
		s := net.Stats()
		fmt.Fprintf(&out, "msgs=%d bytes=%d postings=%d\n", s.Messages, s.Bytes, s.Postings)
		return out.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}
