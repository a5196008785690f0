package sprite

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/simnet"
)

func TestNewValidatesResilienceOptions(t *testing.T) {
	bad := []ResilienceOptions{
		{MaxRetries: -1},
		{BaseBackoff: -time.Millisecond},
		{PerCallTimeout: -time.Millisecond},
	}
	for i, rc := range bad {
		if _, err := New(Options{Peers: 2, Resilience: rc}); err == nil {
			t.Errorf("bad resilience options %d accepted: %+v", i, rc)
		}
	}
}

func TestSearchCtxDeadline(t *testing.T) {
	n := newNet(t, Options{Peers: 8})
	if err := n.ShareCtx(context.Background(), "peer0", "d1", "distributed hash table lookup"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := n.SearchCtx(ctx, "peer1", "lookup", 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-context search: %v, want context.DeadlineExceeded", err)
	}
}

func TestShareCtxAndLearnCtxCancellation(t *testing.T) {
	n := newNet(t, Options{Peers: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ShareCtx(ctx, "peer0", "d1", "chord ring routing"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ShareCtx: %v, want context.Canceled", err)
	}
	if err := n.ShareCtx(context.Background(), "peer0", "d1", "chord ring routing"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.LearnCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled LearnCtx: %v, want context.Canceled", err)
	}
}

func TestSentinelErrorsAtFacade(t *testing.T) {
	n := newNet(t, Options{Peers: 4})
	if err := n.ShareCtx(context.Background(), "nobody", "d1", "some text here"); !errors.Is(err, ErrNoSuchPeer) {
		t.Fatalf("Share unknown peer: %v, want ErrNoSuchPeer", err)
	}
	if _, err := n.SearchCtx(context.Background(), "nobody", "text", 5); !errors.Is(err, ErrNoSuchPeer) {
		t.Fatalf("SearchCtx unknown peer: %v, want ErrNoSuchPeer", err)
	}
	if _, err := n.IndexedTerms("nodoc"); !errors.Is(err, ErrNoSuchDoc) {
		t.Fatalf("IndexedTerms unknown doc: %v, want ErrNoSuchDoc", err)
	}
}

func TestSearchCtxPartialResults(t *testing.T) {
	// Fail a term's indexing peer with no replication: the context-first
	// search must surface the dropped term as ErrPartialResults while the old
	// entry point keeps returning a nil error.
	n := newNet(t, Options{Peers: 10, Seed: 3})
	if err := n.ShareTerms("peer0", "A", map[string]int{"klmno": 5}); err != nil {
		t.Fatal(err)
	}
	if err := n.ShareTerms("peer1", "B", map[string]int{"qrstu": 5}); err != nil {
		t.Fatal(err)
	}
	// Find and fail the peer indexing klmno: without replication the term is
	// lost when every candidate holder (the routed-to successor) serves
	// nothing... so instead locate the holder by elimination: fail each peer
	// until the single-term search stops returning A.
	victim := ""
	for _, p := range n.Peers() {
		if p == "peer2" {
			continue // keep the querying peer up
		}
		n.FailPeer(p)
		got, err := n.SearchTermsCtx(context.Background(), "peer2", []string{"klmno"}, 5)
		if err != nil || len(got) == 0 {
			victim = p
			break
		}
		n.RecoverPeer(p)
	}
	if victim == "" {
		t.Fatal("could not locate the indexing peer for klmno")
	}

	// A failed peer is routed around by the DHT (lookups land on its
	// successor, which simply has no postings), so a partial error needs the
	// holder to be unreachable while still resolvable — drop its calls
	// instead. Recover first, then inject the transient fault.
	n.RecoverPeer(victim)
	sim := n.dep.Sim
	if sim == nil {
		t.Fatal("simulated transport expected")
	}
	sim.DropCalls(simnet.Addr(victim), 1_000_000)

	res, err := n.SearchTermsCtx(context.Background(), "peer2", []string{"qrstu", "klmno"}, 5)
	if !errors.Is(err, ErrPartialResults) {
		t.Fatalf("SearchTermsCtx = %v, want ErrPartialResults", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Failures) != 1 || pe.Failures[0].Term != "klmno" {
		t.Fatalf("partial error detail: %+v", err)
	}
	if !strings.Contains(err.Error(), "klmno") {
		t.Fatalf("error message does not name the dropped term: %v", err)
	}
	if len(res) != 1 || res[0].DocID != "B" {
		t.Fatalf("remaining-term results = %+v, want [B]", res)
	}
}

func TestFailPeerConcurrentSearchRace(t *testing.T) {
	// Regression for the FailPeer/RecoverPeer vs concurrent Search race: the
	// liveness flip plus cache invalidation must never let a racing search
	// re-store a pre-failure result. Run under -race.
	n := newNet(t, Options{Peers: 8, Cache: CacheOptions{Enabled: true}})
	if err := n.ShareCtx(context.Background(), "peer0", "d1", "chord ring lookup protocol"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			n.SearchTermsCtx(context.Background(), "peer2", []string{"chord"}, 5)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			n.FailPeer("peer3")
			n.RecoverPeer("peer3")
		}
	}()
	wg.Wait()
}

func TestResilientSearchRecoversFromTransientDrops(t *testing.T) {
	// End-to-end through the facade: a holder dropping a bounded number of
	// calls is survived by retries alone (no replication involved).
	n := newNet(t, Options{
		Peers: 8,
		Resilience: ResilienceOptions{
			MaxRetries:  3,
			BaseBackoff: time.Microsecond,
		},
	})
	if err := n.ShareTerms("peer0", "D", map[string]int{"vwxyz": 3}); err != nil {
		t.Fatal(err)
	}
	res, err := n.SearchTermsCtx(context.Background(), "peer1", []string{"vwxyz"}, 5)
	if err != nil || len(res) != 1 {
		t.Fatalf("healthy search: %v %+v", err, res)
	}
	// Every peer drops its next 2 calls; with 3 retries each fetch still
	// lands.
	for _, p := range n.Peers() {
		n.dep.Sim.DropCalls(simnet.Addr(p), 2)
	}
	res, err = n.SearchTermsCtx(context.Background(), "peer1", []string{"vwxyz"}, 5)
	if err != nil {
		t.Fatalf("search under transient drops: %v", err)
	}
	if len(res) != 1 || res[0].DocID != "D" {
		t.Fatalf("results under transient drops = %+v", res)
	}
}
