package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// resilientNetwork builds a network with fault injection available: the
// simulated transport is returned alongside so tests can drop calls.
func resilientNetwork(t testing.TB, peers int, cfg Config) (*Network, *simnet.Network) {
	t.Helper()
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("p", peers); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	ring.Build()
	n, err := NewNetwork(ring, cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n, net
}

// ownerOfTerm resolves which peer the DHT holds responsible for a term.
func ownerOfTerm(t testing.TB, n *Network, term string) *Peer {
	t.Helper()
	ref, _, err := n.Peers()[0].node.Lookup(chordid.HashKey(term))
	if err != nil {
		t.Fatalf("Lookup(%q): %v", term, err)
	}
	p, ok := n.Peer(ref.Addr)
	if !ok {
		t.Fatalf("no peer at %s", ref.Addr)
	}
	return p
}

// searcherAvoiding picks a query peer that is none of the given addresses, so
// fault injection on those peers cannot interfere with the querying side.
func searcherAvoiding(t testing.TB, n *Network, avoid ...simnet.Addr) simnet.Addr {
	t.Helper()
	for _, p := range n.Peers() {
		skip := false
		for _, a := range avoid {
			if p.Addr() == a {
				skip = true
			}
		}
		if !skip {
			return p.Addr()
		}
	}
	t.Fatal("no peer outside the avoid set")
	return ""
}

func TestResilienceConfigValidation(t *testing.T) {
	bad := []ResilienceConfig{
		{MaxRetries: -1},
		{BaseBackoff: -time.Millisecond},
		{PerCallTimeout: -1},
		{HedgeAfter: -1},
		{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Millisecond},
	}
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	ring.AddNodes("v", 2)
	ring.Build()
	for i, rc := range bad {
		if _, err := NewNetwork(ring, Config{Resilience: rc}); err == nil {
			t.Errorf("bad resilience config %d accepted: %+v", i, rc)
		}
	}
}

func TestSearchFailoverMatchesHealthyRun(t *testing.T) {
	// The acceptance scenario: with ReplicationFactor = 2 and the owner of a
	// term's postings refusing connections, a search must fail over to the §7
	// successor replica and return results byte-identical to the healthy run.
	reg := telemetry.NewRegistry()
	n, sim := resilientNetwork(t, 10, Config{
		InitialTerms:      2,
		ReplicationFactor: 2,
		Telemetry:         reg,
		Resilience: ResilienceConfig{
			MaxRetries:         1,
			FailoverToReplicas: true,
		},
	})
	docs := map[string]map[string]int{
		"d1": {"failover": 5, "alpha": 2},
		"d2": {"failover": 3, "beta": 4},
		"d3": {"failover": 1, "gamma": 2},
	}
	for id, tf := range docs {
		if err := n.Share(n.Peers()[0].Addr(), doc(id, tf)); err != nil {
			t.Fatalf("Share %s: %v", id, err)
		}
	}
	owner := ownerOfTerm(t, n, "failover")
	searcher := searcherAvoiding(t, n, owner.Addr())

	healthy, err := n.ProbeCtx(context.Background(), searcher, []string{"failover"}, 10)
	if err != nil {
		t.Fatalf("healthy probe: %v", err)
	}
	if len(healthy) != 3 {
		t.Fatalf("healthy results = %v, want 3 docs", healthy)
	}

	// The owner stays alive (a transient fault: connections drop, liveness
	// does not change), so the DHT still resolves it as the term's holder and
	// only the resilient fetch path can reach the replicas.
	sim.DropCalls(owner.Addr(), 1_000_000)

	got, err := n.ProbeCtx(context.Background(), searcher, []string{"failover"}, 10)
	if err != nil {
		t.Fatalf("failover probe: %v", err)
	}
	if !reflect.DeepEqual(healthy, got) {
		t.Fatalf("failover results differ from healthy run:\nhealthy: %v\nfailover: %v", healthy, got)
	}
	if v := reg.Counter("sprite.resilience.retries").Value(); v == 0 {
		t.Error("no retries counted against the dropping owner")
	}
	if v := reg.Counter("sprite.resilience.failovers").Value(); v == 0 {
		t.Error("no failovers counted")
	}
	// The fetch-attempts histogram must have seen a multi-attempt fetch
	// (retries against the owner, then the failover fetch).
	h := reg.Histogram("sprite.resilience.fetch_attempts")
	if h.Count() == 0 || h.Max() < 2 {
		t.Errorf("fetch_attempts histogram = count %d max %d, want multi-attempt fetches", h.Count(), h.Max())
	}
}

func TestSearchAllHoldersDownReturnsPartial(t *testing.T) {
	// When a term's owner AND every replica holder are unreachable, the search
	// must still rank the remaining terms and surface the loss as a typed
	// partial-results error rather than silently degrading.
	reg := telemetry.NewRegistry()
	n, sim := resilientNetwork(t, 10, Config{
		InitialTerms:      2,
		ReplicationFactor: 1,
		Telemetry:         reg,
		Resilience: ResilienceConfig{
			MaxRetries:         1,
			FailoverToReplicas: true,
		},
	})
	if err := n.Share(n.Peers()[0].Addr(), doc("dead", map[string]int{"deadterm": 5})); err != nil {
		t.Fatal(err)
	}
	if err := n.Share(n.Peers()[1].Addr(), doc("alive", map[string]int{"aliveterm": 5})); err != nil {
		t.Fatal(err)
	}
	owner := ownerOfTerm(t, n, "deadterm")
	// The replica lives on the owner's first successor (§7).
	replica := owner.node.SuccessorList()[0].Addr
	searcher := searcherAvoiding(t, n, owner.Addr(), replica)

	sim.DropCalls(owner.Addr(), 1_000_000)
	sim.DropCalls(replica, 1_000_000)

	rl, err := n.SearchCtx(context.Background(), searcher, []string{"aliveterm", "deadterm"}, 10)
	if err == nil {
		t.Fatal("all-holders-down search returned nil error")
	}
	if !errors.Is(err, ErrPartialResults) {
		t.Fatalf("error does not wrap ErrPartialResults: %v", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PartialError: %v", err)
	}
	if len(pe.Failures) != 1 || pe.Failures[0].Term != "deadterm" {
		t.Fatalf("failures = %+v, want exactly deadterm", pe.Failures)
	}
	if pe.Failures[0].Err == nil {
		t.Fatal("term failure carries no cause")
	}
	if len(rl) != 1 || rl[0].Doc != "alive" {
		t.Fatalf("remaining-term results = %v, want [alive]", rl)
	}
	if v := reg.Counter("sprite.resilience.partials").Value(); v != 1 {
		t.Errorf("partials counter = %d, want 1", v)
	}

	// The pre-context entry points keep their old contract: degraded results
	// with a nil error.
	rl2, err := n.Probe(searcher, []string{"aliveterm", "deadterm"}, 10)
	if err != nil {
		t.Fatalf("Probe surfaced the partial error: %v", err)
	}
	if !reflect.DeepEqual(rl, rl2) {
		t.Fatalf("Probe results differ from SearchCtx: %v vs %v", rl, rl2)
	}
}

func TestSearchCtxExpiredContextReturnsPromptly(t *testing.T) {
	n, _ := resilientNetwork(t, 8, Config{
		InitialTerms: 2,
		Resilience:   ResilienceConfig{MaxRetries: 3, BaseBackoff: time.Second},
	})
	if err := n.Share("p0", doc("d1", map[string]int{"chord": 5})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	rl, err := n.SearchCtx(ctx, "p1", []string{"chord"}, 10)
	if err == nil {
		t.Fatal("expired context accepted")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	if rl != nil {
		t.Fatalf("aborted search returned results: %v", rl)
	}
	// Promptly: no backoff sleeps (3 retries × 1s would dwarf this bound).
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("expired-context search took %v", took)
	}
}

func TestSearchCtxCancellationAbortsRetries(t *testing.T) {
	n, sim := resilientNetwork(t, 8, Config{
		InitialTerms: 2,
		Resilience:   ResilienceConfig{MaxRetries: 50, BaseBackoff: 20 * time.Millisecond},
	})
	if err := n.Share("p0", doc("d1", map[string]int{"chord": 5})); err != nil {
		t.Fatal(err)
	}
	owner := ownerOfTerm(t, n, "chord")
	searcher := searcherAvoiding(t, n, owner.Addr())
	sim.DropCalls(owner.Addr(), 1_000_000)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.SearchCtx(ctx, searcher, []string{"chord"}, 10)
	if err == nil {
		t.Fatal("canceled search returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	// 50 retries × 20ms backoff caps near a second; cancellation must cut
	// that short.
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("canceled search took %v", took)
	}
}

func TestZeroResilienceSingleAttempt(t *testing.T) {
	// The zero config must behave exactly like the pre-resilience code: one
	// fetch attempt, no failover, term skipped on failure (old entry point).
	n, sim := resilientNetwork(t, 8, Config{InitialTerms: 2, ReplicationFactor: 1})
	if err := n.Share("p0", doc("d1", map[string]int{"chord": 5})); err != nil {
		t.Fatal(err)
	}
	owner := ownerOfTerm(t, n, "chord")
	searcher := searcherAvoiding(t, n, owner.Addr())
	sim.ResetStats()
	sim.DropCalls(owner.Addr(), 1_000_000)

	rl, err := n.Search(searcher, []string{"chord"}, 10)
	if err != nil {
		t.Fatalf("degraded search errored: %v", err)
	}
	if len(rl) != 0 {
		t.Fatalf("degraded search found %v despite single-attempt config", rl)
	}
	if dropped := sim.Stats().Dropped; dropped != 1 {
		t.Fatalf("owner saw %d postings attempts, want exactly 1", dropped)
	}
}

func TestFailPeerInvalidatesResultCacheUnderConcurrentSearch(t *testing.T) {
	// Regression: FailPeer-style liveness flips (transport Fail/Recover plus
	// InvalidateCaches) racing concurrent searches must never let a search
	// that read pre-failure postings store its result past the invalidation
	// (cache.PutAt's generation guard). Run under -race.
	n, sim := resilientNetwork(t, 8, Config{
		InitialTerms: 2,
		Cache:        CacheConfig{Enabled: true},
	})
	if err := n.Share("p0", doc("d1", map[string]int{"chord": 5})); err != nil {
		t.Fatal(err)
	}
	owner := ownerOfTerm(t, n, "chord")
	searcher := searcherAvoiding(t, n, owner.Addr())

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			n.Probe(searcher, []string{"chord"}, 10)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sim.Fail(owner.Addr())
			n.InvalidateCaches()
			sim.Recover(owner.Addr())
			n.InvalidateCaches()
		}
	}()
	wg.Wait()

	// Quiesced: fail the owner for good. With no replication its postings are
	// gone; the next search must observe that, not a stale cached result that
	// slipped in behind the last invalidation.
	sim.Fail(owner.Addr())
	n.InvalidateCaches()
	rl, err := n.Probe(searcher, []string{"chord"}, 10)
	if err != nil {
		t.Fatalf("post-failure probe: %v", err)
	}
	if len(rl) != 0 {
		t.Fatalf("stale cached result served after FailPeer: %v", rl)
	}
}

func TestSentinelErrors(t *testing.T) {
	n, _ := resilientNetwork(t, 4, Config{})
	if err := n.Share("ghost", doc("d1", map[string]int{"a": 1})); !errors.Is(err, ErrNoSuchPeer) {
		t.Fatalf("Share unknown peer: %v, want ErrNoSuchPeer", err)
	}
	if _, err := n.SearchCtx(context.Background(), "ghost", []string{"a"}, 5); !errors.Is(err, ErrNoSuchPeer) {
		t.Fatalf("SearchCtx unknown peer: %v, want ErrNoSuchPeer", err)
	}
	if _, err := n.IndexedTerms("nope"); !errors.Is(err, ErrNoSuchDoc) {
		t.Fatalf("IndexedTerms unknown doc: %v, want ErrNoSuchDoc", err)
	}
	if _, err := n.LearnDocCtx(context.Background(), "nope"); !errors.Is(err, ErrNoSuchDoc) {
		t.Fatalf("LearnDocCtx unknown doc: %v, want ErrNoSuchDoc", err)
	}
}

// payloadLog wraps the simulator and notes the Go type of every postings
// request's payload, in order.
type payloadLog struct {
	*simnet.Network
	mu    sync.Mutex
	types []string
}

func (l *payloadLog) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	if msg.Type == msgGetPostings {
		l.mu.Lock()
		l.types = append(l.types, fmt.Sprintf("%T", msg.Payload))
		l.mu.Unlock()
	}
	return l.Network.CallCtx(ctx, from, to, msg)
}

func (l *payloadLog) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return l.CallCtx(context.Background(), from, to, msg)
}

func TestRetriesRepeatOnlyTheDeliveryLeg(t *testing.T) {
	// A holder the route reached on an owner hint drops two fetches. The
	// retries must go to that same holder, one round trip each with no fresh
	// lookup, and still inside the envelope: a node named only by a hint must
	// never be sent a bare key-addressed request.
	log := &payloadLog{Network: simnet.New(1)}
	ring := chord.NewRing(log, chord.Config{})
	if _, err := ring.AddNodes("p", 16); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, Config{
		InitialTerms: 2,
		Resilience:   ResilienceConfig{MaxRetries: 3, BaseBackoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Share("p0", doc("d1", map[string]int{"chord": 5})); err != nil {
		t.Fatal(err)
	}
	owner := ownerOfTerm(t, n, "chord")

	probe := func(searcher simnet.Addr) (results any, hops int64, payloads []string) {
		log.ResetStats()
		log.types = nil
		rl, err := n.ProbeCtx(context.Background(), searcher, []string{"chord"}, 10)
		if err != nil {
			t.Fatalf("probe from %s: %v", searcher, err)
		}
		return rl, log.Stats().CallsByType["chord.next_hop"], log.types
	}
	var searcher simnet.Addr
	var healthy any
	var healthyHops int64
	for _, p := range n.Peers() {
		if p.Addr() == owner.Addr() {
			continue
		}
		if rl, hops, payloads := probe(p.Addr()); len(payloads) == 1 && payloads[0] == "chord.routed" {
			searcher, healthy, healthyHops = p.Addr(), rl, hops
			break
		}
	}
	if searcher == "" {
		t.Fatal("no peer reaches the term's holder on an owner hint")
	}

	log.DropCalls(owner.Addr(), 2)
	got, hops, payloads := probe(searcher)
	if !reflect.DeepEqual(got, healthy) {
		t.Fatalf("results after two dropped fetches differ: %v vs %v", got, healthy)
	}
	if hops != healthyHops {
		t.Fatalf("retries cost %d routing round trips, the healthy route %d — a retry looked the holder up again", hops, healthyHops)
	}
	if want := []string{"chord.routed", "chord.routed", "chord.routed"}; !reflect.DeepEqual(payloads, want) {
		t.Fatalf("postings requests sent as %v, want %v", payloads, want)
	}
	if dropped := log.Stats().Dropped; dropped != 2 {
		t.Fatalf("%d calls dropped, want the 2 injected", dropped)
	}
}
