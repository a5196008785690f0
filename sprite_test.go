package sprite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func newNet(t *testing.T, opts Options) *Network {
	t.Helper()
	n, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestNewDefaults(t *testing.T) {
	n := newNet(t, Options{})
	if got := len(n.Peers()); got != 16 {
		t.Fatalf("default peers = %d, want 16", got)
	}
	for _, p := range n.Peers() {
		if !strings.HasPrefix(p, "peer") {
			t.Fatalf("peer name %q lacks default prefix", p)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Peers: -3}); err == nil {
		t.Fatal("negative peer count accepted")
	}
	if _, err := New(Options{Peers: 4, InitialTerms: 10, MaxIndexTerms: 5}); err == nil {
		t.Fatal("inconsistent term budget accepted")
	}
}

func TestShareAndSearch(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 2})
	err := n.ShareCtx(context.Background(), "peer0", "doc-chord", "Chord is a scalable peer-to-peer lookup protocol for internet applications")
	if err != nil {
		t.Fatalf("Share: %v", err)
	}
	if err := n.ShareCtx(context.Background(), "peer1", "doc-porter", "The Porter stemmer strips suffixes from English words"); err != nil {
		t.Fatalf("Share: %v", err)
	}
	res, err := n.SearchCtx(context.Background(), "peer3", "chord lookup", 10)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res) != 1 || res[0].DocID != "doc-chord" {
		t.Fatalf("Search = %+v, want doc-chord", res)
	}
	if res[0].Owner != "peer0" {
		t.Fatalf("Owner = %q, want peer0", res[0].Owner)
	}
	if res[0].Score <= 0 {
		t.Fatalf("Score = %v, want > 0", res[0].Score)
	}
}

func TestSearchAppliesTextPipeline(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 3})
	if err := n.ShareCtx(context.Background(), "peer0", "d", "databases indexing retrieval systems experiments"); err != nil {
		t.Fatal(err)
	}
	// "Databases!" must stem to the same term as "databases".
	res, err := n.SearchCtx(context.Background(), "peer2", "Databases!", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("stemmed query missed: %+v", res)
	}
}

func TestShareRejectsEmptyDocument(t *testing.T) {
	n := newNet(t, Options{Peers: 4})
	if err := n.ShareCtx(context.Background(), "peer0", "empty", "the and of is"); err == nil {
		t.Fatal("stop-words-only document accepted")
	}
	if err := n.ShareTerms("peer0", "empty2", nil); err == nil {
		t.Fatal("empty term map accepted")
	}
}

func TestSearchRejectsEmptyQuery(t *testing.T) {
	n := newNet(t, Options{Peers: 4})
	if _, err := n.SearchCtx(context.Background(), "peer0", "the of and", 5); err == nil {
		t.Fatal("stop-words-only query accepted")
	}
	if _, err := n.SearchTermsCtx(context.Background(), "peer0", nil, 5); err == nil {
		t.Fatal("empty terms accepted")
	}
}

func TestShareTermsBypassesPipeline(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 4})
	if err := n.ShareTerms("peer0", "raw", map[string]int{"presupplied": 3, "stems": 1}); err != nil {
		t.Fatal(err)
	}
	res, err := n.SearchTermsCtx(context.Background(), "peer1", []string{"presupplied"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DocID != "raw" {
		t.Fatalf("SearchTerms = %+v", res)
	}
}

func TestLearnPromotesQueriedTerms(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 5, InitialTerms: 1, TermsPerIteration: 2, MaxIndexTerms: 4})
	// "protocol" dominates by frequency; "gossip" is rare but will be queried.
	err := n.ShareTerms("peer0", "d", map[string]int{"protocol": 10, "gossip": 1, "filler": 5})
	if err != nil {
		t.Fatal(err)
	}
	if terms, _ := n.IndexedTerms("d"); len(terms) != 1 || terms[0] != "protocol" {
		t.Fatalf("initial terms = %v", terms)
	}
	// A user's query pairs the indexed term with the rare one.
	if _, err := n.SearchTermsCtx(context.Background(), "peer3", []string{"protocol", "gossip"}, 5); err != nil {
		t.Fatal(err)
	}
	changes, err := n.LearnCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if changes == 0 {
		t.Fatal("Learn made no changes")
	}
	res, err := n.SearchTermsCtx(context.Background(), "peer4", []string{"gossip"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("gossip not findable after learning: %+v", res)
	}
}

func TestIndexedTermsUnknownDoc(t *testing.T) {
	n := newNet(t, Options{Peers: 4})
	if _, err := n.IndexedTerms("nope"); err == nil {
		t.Fatal("unknown doc accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 6})
	if err := n.ShareCtx(context.Background(), "peer0", "d", "alpha beta gamma delta epsilon"); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.Messages == 0 {
		t.Fatal("sharing generated no network traffic")
	}
	if s.Postings == 0 {
		t.Fatal("no postings stored")
	}
	if s.Peers != 8 {
		t.Fatalf("alive peers = %d, want 8", s.Peers)
	}
	if s.ByType["sprite.publish"] == 0 {
		t.Fatalf("no publish messages recorded: %v", s.ByType)
	}
	n.ResetStats()
	if n.Stats().Messages != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if n.Stats().Postings == 0 {
		t.Fatal("ResetStats cleared the index footprint")
	}
}

func TestFailoverWithReplication(t *testing.T) {
	n := newNet(t, Options{Peers: 12, Seed: 7, Replicas: 2})
	if err := n.ShareTerms("peer0", "d", map[string]int{"failsafe": 4, "redundant": 2}); err != nil {
		t.Fatal(err)
	}
	n.Repair() // replicas exist once a Repair has run after the publish
	res, err := n.SearchTermsCtx(context.Background(), "peer5", []string{"failsafe"}, 5)
	if err != nil || len(res) != 1 {
		t.Fatalf("pre-failure search: %v %+v", err, res)
	}
	// Kill the indexing peer responsible for the term: find it by checking
	// which peer's failure makes the result disappear without replication.
	// With replication, the query must still succeed regardless of which
	// single peer dies — verify by failing each peer in turn.
	for _, victim := range n.Peers() {
		n.FailPeer(victim)
		got, err := n.SearchTermsCtx(context.Background(), "peer5", []string{"failsafe"}, 5)
		n.RecoverPeer(victim)
		if victim == "peer5" || victim == "peer0" {
			continue // querying peer itself or owner; not the failover path
		}
		if err != nil {
			t.Fatalf("search failed with %s down: %v", victim, err)
		}
		if len(got) != 1 {
			t.Fatalf("replicated entry unavailable with %s down", victim)
		}
	}
}

func TestStabilizeAfterFailure(t *testing.T) {
	n := newNet(t, Options{Peers: 10, Seed: 8})
	n.FailPeer("peer3")
	if rounds := n.Stabilize(50); rounds == 0 {
		t.Log("ring already converged") // acceptable: failure may not disturb successors
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []Result {
		n := newNet(t, Options{Peers: 8, Seed: 42})
		n.ShareCtx(context.Background(), "peer0", "a", "storage engines write amplification compaction levels")
		n.ShareCtx(context.Background(), "peer1", "b", "log structured merge trees compaction strategies")
		res, _ := n.SearchCtx(context.Background(), "peer2", "compaction", 10)
		return res
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("result count differs across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestUnshareFacade(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 12})
	if err := n.ShareCtx(context.Background(), "peer0", "gone", "ephemeral document about vanishing data"); err != nil {
		t.Fatal(err)
	}
	res, _ := n.SearchCtx(context.Background(), "peer1", "vanishing", 5)
	if len(res) != 1 {
		t.Fatalf("doc not findable before unshare: %v", res)
	}
	if err := n.Unshare("gone"); err != nil {
		t.Fatalf("Unshare: %v", err)
	}
	res, _ = n.SearchCtx(context.Background(), "peer1", "vanishing", 5)
	if len(res) != 0 {
		t.Fatalf("doc still findable after unshare: %v", res)
	}
	if err := n.Unshare("gone"); err == nil {
		t.Fatal("double unshare succeeded")
	}
}

// TestRefreshFacadeHealsAfterFailure: the unreplicated holder of a term
// crashes, and one learning sweep re-publishes its posting at the peer that
// now answers for the key.
func TestRefreshFacadeHealsAfterFailure(t *testing.T) {
	tel := NewTelemetry()
	n := newNet(t, Options{Peers: 12, Seed: 13, Telemetry: tel})
	if err := n.ShareTerms("peer0", "doc", map[string]int{"resilient": 3, "entries": 1}); err != nil {
		t.Fatal(err)
	}
	// Find and fail the indexing peer for "resilient" by trying each peer.
	var victim string
	for _, p := range n.Peers() {
		if p == "peer0" {
			continue
		}
		n.FailPeer(p)
		res, _ := n.SearchTermsCtx(context.Background(), "peer0", []string{"resilient"}, 5)
		if len(res) == 0 {
			victim = p
			break
		}
		n.RecoverPeer(p)
	}
	if victim == "" {
		t.Skip("term hosted on the owner peer itself")
	}
	if _, err := n.LearnCtx(context.Background()); err != nil {
		t.Fatalf("LearnCtx: %v", err)
	}
	if got := tel.Counter("sprite.learn.reanchored"); got != 1 {
		t.Fatalf("the sweep re-anchored %d postings, want 1", got)
	}
	res, err := n.SearchTermsCtx(context.Background(), "peer0", []string{"resilient"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("doc not findable after the sweep: %v", res)
	}
}

func TestJoinLeaveFacade(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 21, Replicas: 2})
	docs := map[string]string{
		"dht":  "distributed hash tables route lookups in logarithmic hops",
		"ir":   "inverted indexes rank documents by term frequency statistics",
		"p2p":  "peer to peer overlays survive churn through replication",
		"text": "stemming and stop word removal normalize document text",
	}
	for id, body := range docs {
		if err := n.ShareCtx(context.Background(), "peer0", id, body); err != nil {
			t.Fatal(err)
		}
	}
	before := len(n.Peers())
	if err := n.JoinPeer("newcomer"); err != nil {
		t.Fatalf("JoinPeer: %v", err)
	}
	if got := len(n.Peers()); got != before+1 {
		t.Fatalf("peer count after join = %d, want %d", got, before+1)
	}
	if err := n.JoinPeer("newcomer"); err == nil {
		t.Fatal("joining an existing peer succeeded")
	}
	// Every document stays findable with no refresh sweep: the join-time
	// handoff moved the newcomer's arc to it.
	for id := range docs {
		res, err := n.SearchTermsCtx(context.Background(), "peer1", termsOf(t, n, id), 5)
		if err != nil {
			t.Fatalf("search after join: %v", err)
		}
		if !containsDoc(res, id) {
			t.Fatalf("doc %s lost after join: %v", id, res)
		}
	}
	handoffs, err := n.LeavePeer("newcomer")
	if err != nil {
		t.Fatalf("LeavePeer: %v", err)
	}
	if got := len(n.Peers()); got != before {
		t.Fatalf("peer count after leave = %d, want %d", got, before)
	}
	_ = handoffs // may be zero if the newcomer's arc held no entries
	if _, err := n.LeavePeer("newcomer"); err == nil {
		t.Fatal("leaving a departed peer succeeded")
	}
	st := n.Repair()
	if st.Rounds == 0 {
		t.Fatal("Repair ran no shed rounds")
	}
	for id := range docs {
		res, err := n.SearchTermsCtx(context.Background(), "peer1", termsOf(t, n, id), 5)
		if err != nil {
			t.Fatalf("search after leave: %v", err)
		}
		if !containsDoc(res, id) {
			t.Fatalf("doc %s lost after leave: %v", id, res)
		}
	}
}

func termsOf(t *testing.T, n *Network, docID string) []string {
	t.Helper()
	terms, err := n.IndexedTerms(docID)
	if err != nil || len(terms) == 0 {
		t.Fatalf("IndexedTerms(%s): %v (%d terms)", docID, err, len(terms))
	}
	return terms[:1]
}

func containsDoc(res []Result, id string) bool {
	for _, r := range res {
		if r.DocID == id {
			return true
		}
	}
	return false
}

func TestSearchExpandedFacade(t *testing.T) {
	n := newNet(t, Options{Peers: 10, Seed: 14})
	n.ShareCtx(context.Background(), "peer0", "go-doc", "goroutines channels scheduler preemption garbage collector runtime")
	n.ShareCtx(context.Background(), "peer1", "rust-doc", "borrow checker lifetimes ownership zero cost abstractions runtime")
	res, expansion, err := n.SearchExpanded("peer2", "goroutines scheduler", 5, Expansion{Terms: 2})
	if err != nil {
		t.Fatalf("SearchExpanded: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].DocID != "go-doc" {
		t.Fatalf("top result = %v", res[0])
	}
	// Expansion terms must come from the feedback document.
	for _, term := range expansion {
		if term == "goroutin" || term == "schedul" {
			t.Fatalf("expansion repeated query term %q", term)
		}
	}
	if _, _, err := n.SearchExpanded("peer2", "the of", 5, Expansion{}); err == nil {
		t.Fatal("stop-word query accepted")
	}
	if _, _, err := n.SearchExpanded("ghost", "goroutines", 5, Expansion{}); !errors.Is(err, ErrNoSuchPeer) {
		t.Fatalf("unknown peer: err = %v, want ErrNoSuchPeer", err)
	}
}

func TestTCPModeEndToEnd(t *testing.T) {
	n, err := New(Options{Peers: 6, TCP: true, InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 6})
	if err != nil {
		t.Fatalf("New TCP: %v", err)
	}
	defer n.Close()
	peers := n.Peers()
	if len(peers) != 6 {
		t.Fatalf("peers = %v", peers)
	}
	for _, p := range peers {
		if !strings.Contains(p, ":") {
			t.Fatalf("TCP peer name %q is not host:port", p)
		}
	}
	if err := n.ShareCtx(context.Background(), peers[0], "tcp-doc", "sockets frames and gob encoding over loopback"); err != nil {
		t.Fatalf("Share over TCP: %v", err)
	}
	res, err := n.SearchCtx(context.Background(), peers[3], "gob encoding", 5)
	if err != nil {
		t.Fatalf("Search over TCP: %v", err)
	}
	if len(res) != 1 || res[0].DocID != "tcp-doc" {
		t.Fatalf("results = %v", res)
	}
	if _, err := n.LearnCtx(context.Background()); err != nil {
		t.Fatalf("Learn over TCP: %v", err)
	}
	// Simulator-only capabilities must be inert, not crash.
	n.FailPeer(peers[1])
	n.RecoverPeer(peers[1])
	n.ResetStats()
	if s := n.Stats(); s.Postings == 0 || s.Peers != 6 {
		t.Fatalf("TCP stats = %+v", s)
	}
}

// TestFailedTCPNewLeavesNoGoroutines: a New that fails after the TCP
// listeners are up (core refuses the configuration) closes the transport.
func TestFailedTCPNewLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := New(Options{TCP: true, Peers: 4, Parallelism: -1}); err == nil {
		t.Fatal("Parallelism -1 accepted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a failed New, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHotTermDFOption(t *testing.T) {
	n := newNet(t, Options{Peers: 8, Seed: 21, InitialTerms: 2, HotTermDF: 3, TermsPerIteration: 2, MaxIndexTerms: 5})
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("doc%d", i)
		if err := n.ShareTerms("peer0", id, map[string]int{"everywhere": 4, "unique" + id: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.LearnCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// df must have been driven below the threshold.
	df := 0
	for i := 0; i < 6; i++ {
		terms, _ := n.IndexedTerms(fmt.Sprintf("doc%d", i))
		for _, term := range terms {
			if term == "everywhere" {
				df++
			}
		}
	}
	if df >= 3 {
		t.Fatalf("hot term still indexed by %d docs, want < 3", df)
	}
}

func TestSaveLoadFacade(t *testing.T) {
	build := func() *Network {
		return newNet(t, Options{Peers: 8, Seed: 33, InitialTerms: 2})
	}
	a := build()
	if err := a.ShareCtx(context.Background(), "peer0", "persisted", "durable state surviving restarts via snapshots"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SearchCtx(context.Background(), "peer2", "durable snapshots", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := a.LearnCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	b := build()
	if err := b.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ra, _ := a.SearchCtx(context.Background(), "peer3", "durable", 5)
	rb, _ := b.SearchCtx(context.Background(), "peer3", "durable", 5)
	if len(ra) != len(rb) {
		t.Fatalf("post-load search differs: %v vs %v", ra, rb)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	ta, _ := a.IndexedTerms("persisted")
	tb, _ := b.IndexedTerms("persisted")
	if strings.Join(ta, ",") != strings.Join(tb, ",") {
		t.Fatalf("indexed terms differ: %v vs %v", ta, tb)
	}
}
