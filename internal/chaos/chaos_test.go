package chaos

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"github.com/spritedht/sprite/internal/core"
)

var (
	flagSeed = flag.Int64("chaos.seed", 0,
		"run only this seed — replay a reported violation")
	flagSteps = flag.Int("chaos.steps", 0,
		"operations per run (0 = per-test default)")
)

func steps(def int) int {
	if *flagSteps > 0 {
		return *flagSteps
	}
	return def
}

// tenSeeds is the fixed acceptance seed set; -chaos.seed narrows to one.
func tenSeeds() []int64 {
	if *flagSeed != 0 {
		return []int64{*flagSeed}
	}
	return []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
}

// firstSeeds returns the first n acceptance seeds. Under -chaos.seed the
// list is the single overridden seed, so every test replays it.
func firstSeeds(n int) []int64 {
	s := tenSeeds()
	if len(s) < n {
		return s
	}
	return s[:n]
}

func report(t *testing.T, res Result) {
	t.Helper()
	if res.Violation == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Violation)
	if res.Repro == nil {
		fmt.Fprintf(&b, "violation did not reproduce on replay (schedule-dependent); full sequence:\n")
		b.WriteString("  re-run: go test ./internal/chaos -run TestChaos -chaos.seed=")
		fmt.Fprintf(&b, "%d -chaos.steps=%d\n", res.Seed, res.Steps)
	} else {
		fmt.Fprintf(&b, "shrunk to %d ops in %d replays:\n", len(res.Repro), res.Replays)
		for i, op := range res.Repro {
			fmt.Fprintf(&b, "  %3d. %s\n", i, op)
		}
		fmt.Fprintf(&b, "re-run: go test ./internal/chaos -run TestChaos -chaos.seed=%d -chaos.steps=%d\n",
			res.Seed, res.Steps)
	}
	t.Error(b.String())
}

// TestChaos is the main matrix: ten fixed seeds, sequential and concurrent
// read execution, caches on and off, with a cache-disabled twin checking
// transparency and fault operations (fail/recover/join/heal) enabled.
func TestChaos(t *testing.T) {
	for _, seed := range tenSeeds() {
		for _, par := range []int{1, 8} {
			for _, cache := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/par=%d/cache=%v", seed, par, cache)
				t.Run(name, func(t *testing.T) {
					report(t, Run(Config{
						Seed:              seed,
						Steps:             steps(120),
						Parallelism:       par,
						Cache:             cache,
						Twin:              true,
						FaultOps:          true,
						ReplicationFactor: 2,
						HotTermDF:         6,
					}))
				})
			}
		}
	}
}

// TestChaosFaulty drops the twin and adds the probabilistic fault ops —
// packet loss and scheduled call drops — exercising the taint gating and the
// fault ledger under message-level failures. It runs sequentially: loss draws
// from the network's shared per-call RNG, so concurrent fan-out consumes it in
// schedule-dependent order and a lossy run would not replay (and so could not
// shrink). Concurrency coverage lives in TestChaos, whose twin mode excludes
// the probabilistic ops.
func TestChaosFaulty(t *testing.T) {
	for _, seed := range firstSeeds(5) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			report(t, Run(Config{
				Seed:              seed,
				Steps:             steps(120),
				Parallelism:       1,
				Cache:             true,
				FaultOps:          true,
				ReplicationFactor: 2,
				HotTermDF:         6,
			}))
		})
	}
}

// TestChaosNoReplication runs the paper's baseline configuration (no
// replication, no advisory) to keep the un-replicated code paths covered.
func TestChaosNoReplication(t *testing.T) {
	for _, seed := range firstSeeds(3) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			report(t, Run(Config{
				Seed:  seed,
				Steps: steps(120),
				Twin:  true,
				Cache: true,
			}))
		})
	}
}

// TestChaosVirtualTime runs the matrix's first seeds on the deterministic
// event clock: the same invariants must hold when every timeout, backoff,
// and cache TTL reads virtual time, and two runs of the same seed must agree
// on the outcome exactly (chaos on virtual time is what makes timing-
// dependent violations replayable).
func TestChaosVirtualTime(t *testing.T) {
	for _, seed := range firstSeeds(3) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{
				Seed:              seed,
				Steps:             steps(120),
				Parallelism:       8,
				Cache:             true,
				Twin:              true,
				FaultOps:          true,
				ReplicationFactor: 2,
				HotTermDF:         6,
				VirtualTime:       true,
			}
			res := Run(cfg)
			report(t, res)
			again := Run(cfg)
			if (res.Violation == nil) != (again.Violation == nil) || res.Steps != again.Steps {
				t.Errorf("virtual-time chaos not reproducible: run1 {steps=%d violation=%v} run2 {steps=%d violation=%v}",
					res.Steps, res.Violation, again.Steps, again.Violation)
			}
		})
	}
}

// TestChaosMassChurnSoak is the ring-turnover soak: a quiet workload (no
// random fault ops) with a mass-join wave and a mass-leave wave spliced in,
// turning over more than 30% of the initial ring in two bursts. Placement
// after each burst is entirely the repair subsystem's doing — the heal path
// runs no learning sweep — and the whole soak runs twice on the virtual
// clock, asserting the final distributed state is bit-identical across runs.
func TestChaosMassChurnSoak(t *testing.T) {
	cfg := Config{
		Seed:              42,
		Steps:             steps(60),
		Peers:             10,
		Parallelism:       1,
		Cache:             true,
		ReplicationFactor: 2,
		HotTermDF:         6,
		VirtualTime:       true,
	}
	base := Generate(cfg) // FaultOps off: shares, searches, learning
	joiners := []string{"j0", "j1", "j2"}
	leavers := []string{"c1", "c4", "c7"}
	if turnover := len(joiners) + len(leavers); turnover*100 < 30*cfg.Peers {
		t.Fatalf("soak turns over %d peers of %d, want >= 30%%", turnover, cfg.Peers)
	}
	ops := append([]Op(nil), base[:20]...)
	ops = append(ops, Op{Kind: KMassJoin, Terms: joiners})
	ops = append(ops, base[20:40]...)
	ops = append(ops, Op{Kind: KMassLeave, Terms: leavers})
	ops = append(ops, Op{Kind: KHeal})
	ops = append(ops, base[40:]...)

	v1, d1 := ExecuteDigest(cfg, ops)
	if v1 != nil {
		t.Fatalf("mass-churn soak violated an invariant: %v", v1)
	}
	v2, d2 := ExecuteDigest(cfg, ops)
	if v2 != nil {
		t.Fatalf("mass-churn soak not deterministic: second run violated: %v", v2)
	}
	if d1 != d2 {
		t.Fatalf("mass-churn soak not bit-reproducible: digests %#x vs %#x", d1, d2)
	}
}

// TestChaosSimilarSeedReplay pins the similarity read op end to end: a fixed
// seed whose generated sequence contains similar ops runs violation-free on
// the virtual clock — oracle agreement and cache transparency included — and
// the whole execution replays to a bit-identical state digest, so any future
// similarity regression shows up as either a violation or a digest drift.
func TestChaosSimilarSeedReplay(t *testing.T) {
	cfg := Config{
		Seed:              7,
		Steps:             steps(120),
		Parallelism:       4,
		Cache:             true,
		Twin:              true,
		FaultOps:          true,
		ReplicationFactor: 2,
		HotTermDF:         6,
		VirtualTime:       true,
	}
	ops := Generate(cfg)
	similar := 0
	for _, op := range ops {
		if op.Kind == KSimilar {
			similar++
		}
	}
	if similar == 0 {
		t.Fatalf("seed %d generated no similar ops in %d steps", cfg.Seed, len(ops))
	}
	v1, d1 := ExecuteDigest(cfg, ops)
	if v1 != nil {
		t.Fatalf("similar seed run violated an invariant: %v", v1)
	}
	v2, d2 := ExecuteDigest(cfg, ops)
	if v2 != nil {
		t.Fatalf("replay violated an invariant: %v", v2)
	}
	if d1 != d2 {
		t.Fatalf("similar seed not bit-reproducible: digests %#x vs %#x", d1, d2)
	}
}

// TestChaosMutationCatchesStrandedEntry injects the failure mode the handoff
// protocol exists to prevent: a primary entry teleported to a peer the
// overlay never routes its term to, with the owner's record rewritten to
// match so the ledger checker stays blind. The stranded-entry invariant must
// catch it and shrink the sequence to a small reproduction.
func TestChaosMutationCatchesStrandedEntry(t *testing.T) {
	sabotage := func(n *core.Network) {
		ps := n.PrimarySnapshot()
		if len(ps) == 0 {
			return
		}
		e := ps[0]
		for _, p := range n.Peers() {
			if p.Addr() != e.Peer {
				n.RelocatePrimaryEntry(e.Peer, p.Addr(), e.Term, e.Posting.Doc)
				return
			}
		}
	}
	res := Run(Config{
		Seed:       5,
		Steps:      steps(60),
		EpochEvery: 1, // quiescent run: stranded entries are checked every step
		Sabotage:   sabotage,
	})
	if res.Violation == nil {
		t.Fatal("sabotaged run passed: the invariant registry is blind to stranded entries")
	}
	if res.Violation.Invariant != "stranded" {
		t.Errorf("violation invariant = %q, want stranded (%v)", res.Violation.Invariant, res.Violation)
	}
	if res.Repro == nil {
		t.Fatalf("violation did not reproduce on replay: %v", res.Violation)
	}
	if len(res.Repro) > 20 {
		t.Errorf("repro not minimal: %d ops, want <= 20", len(res.Repro))
	}
	t.Logf("caught %v; shrunk to %d ops in %d replays", res.Violation, len(res.Repro), res.Replays)
}

// TestChaosMutationCatchesReplicaBug is the harness's own acceptance test: a
// deliberately injected bug — a replica entry silently vanishing after every
// operation and right after every Repair — must be caught by the post-Repair
// replica bound and shrunk to a small reproduction. If this test fails, the
// chaos harness is blind.
func TestChaosMutationCatchesReplicaBug(t *testing.T) {
	sabotage := func(n *core.Network) {
		if rs := n.ReplicaSnapshot(); len(rs) > 0 {
			e := rs[0]
			n.DropReplicaEntry(e.Peer, e.Term, e.Posting.Doc)
		}
	}
	res := Run(Config{
		Seed:              3,
		Steps:             steps(60),
		ReplicationFactor: 2,
		Sabotage:          sabotage,
	})
	if res.Violation == nil {
		t.Fatal("sabotaged run passed: the invariant registry is blind to replica loss")
	}
	if res.Violation.Invariant != "replicas" {
		t.Errorf("violation invariant = %q, want replicas (%v)", res.Violation.Invariant, res.Violation)
	}
	if res.Repro == nil {
		t.Fatalf("violation did not reproduce on replay: %v", res.Violation)
	}
	if len(res.Repro) > 20 {
		t.Errorf("repro not minimal: %d ops, want <= 20", len(res.Repro))
	}
	t.Logf("caught %v; shrunk to %d ops in %d replays", res.Violation, len(res.Repro), res.Replays)
}

// TestGenerateDeterministic pins generation to the seed alone.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Steps: 200, FaultOps: true}
	a, b := Generate(cfg), Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("op %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}
