// Package chaos is a seeded, deterministic whole-system test harness for the
// SPRITE stack. It generates a randomized but fully replayable sequence of
// operations — shares, unshares, searches, learning sweeps, peer crashes and
// recoveries, ring joins, packet loss and scheduled call drops —
// executes it against a live network (optionally alongside a cache-disabled
// twin), and checks a registry of invariants after every step:
//
//  1. Index/replica consistency: every live document's indexed terms have
//     their primary entry exactly where the owner recorded it, nothing the
//     owner disowns survives outside the fault ledger, (at quiescent points)
//     primaries sit with the ring's oracle owner, and (right after each
//     Repair) replicas sit on its successors and none of a withdrawn posting
//     survives.
//  2. Oracle agreement: each search's ranked list is bit-identical to a
//     shadow ranking recomputed from introspected ground truth.
//  3. Cache transparency: a twin network with caching off produces identical
//     rankings and query-history multisets.
//  4. Telemetry conservation: the transport's counters stay monotone and
//     internally balanced.
//  5. No leaks: after a final heal-and-unshare-all sweep, the global index is
//     empty modulo the fault ledger and no goroutines linger.
//
// A violation carries the seed and failing step, and Run greedily shrinks the
// operation prefix to a minimal reproduction. Re-run a repro with
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=<seed>
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/deploy"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/sketch"
)

// Config parameterizes one chaos run. The zero value is not usable; Run
// applies the defaults documented per field.
type Config struct {
	// Seed drives every random choice: the document pool, the operation
	// sequence, and the simulated network. Same seed, same run (default 1).
	Seed int64
	// Steps is the number of operations to generate (default 200).
	Steps int
	// Peers is the initial ring size (default 8).
	Peers int
	// Docs is the size of the shareable document pool (default 16).
	Docs int
	// Vocab is the synthetic vocabulary size (default 48). Term choice is
	// biased so a few terms are common across many documents, exercising
	// high-DF paths (shared indexing peers, the hot-term advisory).
	Vocab int
	// ReplicationFactor is passed through to the core (default 0).
	ReplicationFactor int
	// Parallelism bounds both the core's internal fan-out and how many
	// consecutive read operations the harness issues concurrently (default 1).
	Parallelism int
	// Cache enables the query-path caches on the primary network.
	Cache bool
	// Twin runs a cache-disabled twin network through the same operations and
	// checks invariant 3. Twin mode excludes packet-loss and call-drop
	// operations from generation: probabilistic loss consumes per-call
	// randomness, so two networks with different call patterns would diverge
	// for reasons that are not bugs.
	Twin bool
	// FaultOps enables fault operations in generation: peer fail/recover,
	// ring joins, heals, and (unless Twin) packet loss and call drops.
	FaultOps bool
	// HotTermDF passes the §7 advisory threshold through to the core
	// (default 0 = off).
	HotTermDF int
	// MaxFailed bounds concurrently failed peers (default 2).
	MaxFailed int
	// MinAlive is the floor of alive peers a fail operation must preserve
	// (default 3).
	MinAlive int
	// EpochEvery is the step interval for the expensive quiescent checks —
	// oracle index placement and stranded entries (default 25).
	EpochEvery int
	// MaxShrinkReplays caps the replays the shrinker may spend (default 150).
	MaxShrinkReplays int
	// Sabotage, if set, runs against the primary network after every
	// operation and right after every Repair. Mutation tests use it to inject
	// state corruption and assert the invariant registry catches it.
	Sabotage func(*core.Network)
	// VirtualTime runs each deployment on its own deterministic event clock
	// (internal/vtime) with a constant, actually-slept link delay on every
	// simulated call: the whole fault repertoire — crashes, joins, drops,
	// heals, concurrent read batches — then exercises the virtual scheduler,
	// and every invariant must hold exactly as it does on the wall clock.
	// The slept delay advances virtual time, so runs stay fast.
	VirtualTime bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Steps <= 0 {
		c.Steps = 200
	}
	if c.Peers <= 0 {
		c.Peers = 8
	}
	if c.Docs <= 0 {
		c.Docs = 16
	}
	if c.Vocab <= 0 {
		c.Vocab = 48
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.MaxFailed <= 0 {
		c.MaxFailed = 2
	}
	if c.MinAlive <= 0 {
		c.MinAlive = 3
	}
	if c.EpochEvery <= 0 {
		c.EpochEvery = 25
	}
	if c.MaxShrinkReplays <= 0 {
		c.MaxShrinkReplays = 150
	}
	return c
}

// Violation is one invariant failure, pinned to the operation after which it
// was detected.
type Violation struct {
	Seed      int64
	Step      int    // index of the failing op; == number of ops for the final sweep
	Op        string // the failing op, "" for the final sweep
	Invariant string // which registry entry fired
	Msg       string
}

func (v *Violation) Error() string {
	where := v.Op
	if where == "" {
		where = "final sweep"
	}
	return fmt.Sprintf("chaos seed %d step %d (%s): invariant %s: %s",
		v.Seed, v.Step, where, v.Invariant, v.Msg)
}

// Result is the outcome of one chaos run.
type Result struct {
	Seed      int64
	Steps     int // operations generated
	Violation *Violation
	// StateDigest is ExecuteDigest's fold over the final distributed state;
	// two Runs of the same Config must agree on it exactly.
	StateDigest uint64
	// Repro is the greedily shrunk operation prefix that still reproduces the
	// violation, nil when the run passed or the violation did not reproduce
	// on replay (a schedule-dependent failure — reported unshrunk).
	Repro []Op
	// Replays is the number of shrink replays spent.
	Replays int
}

// Run generates cfg.Steps operations from cfg.Seed, executes them with the
// full invariant registry, and on violation shrinks the sequence to a
// minimal reproduction.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	ops := Generate(cfg)
	res := Result{Seed: cfg.Seed, Steps: len(ops)}
	v, digest := ExecuteDigest(cfg, ops)
	res.StateDigest = digest
	if v == nil {
		return res
	}
	res.Violation = v
	res.Repro, res.Replays = shrink(cfg, ops, v)
	return res
}

// deployment is one network under test plus its per-network checker state.
// Every network-touching step attaches to the virtual clock (if any) through
// Run; the invariant checks are introspective and need no attachment.
type deployment struct {
	*deploy.Deployment
	label string
	nodes map[simnet.Addr]*chord.Node
	// prev is the stats snapshot of the previous step, for monotonicity.
	prev simnet.Stats
	// tolerated is the fault ledger: index entries (primary and replica) that
	// became unexplainable while faults were active. They are excused forever
	// — exactly the garbage a real system accrues from crashed holders — but
	// an unexplained entry appearing with no fault active is a violation.
	tolerated map[entryKey]bool
	// sinceRepair holds every (term, doc) pair live at some step since the
	// last completed Repair: a replica of one may linger until the next
	// Repair, whose anti-entropy is what removes a withdrawn posting's copies.
	sinceRepair map[termDoc]bool
}

type entryKey struct {
	replica bool
	peer    simnet.Addr
	term    string
	doc     index.DocID
}

// chaosLinkDelay is the constant one-way link delay slept by virtual-time
// chaos deployments. Constant so the transport's RNG stream — and therefore
// every routed message — matches the wall-clock run exactly.
const chaosLinkDelay = 200 * time.Microsecond

func (c Config) newDeployment(label string, cacheOn bool) (*deployment, error) {
	coreCfg := core.Config{
		InitialTerms:      3,
		TermsPerIteration: 2,
		MaxIndexTerms:     8,
		// Cap-eviction order under concurrent arrivals is schedule-dependent;
		// an effectively unbounded history keeps runs deterministic.
		HistoryCap:        1 << 20,
		ReplicationFactor: c.ReplicationFactor,
		HotTermDF:         c.HotTermDF,
		Parallelism:       c.Parallelism,
		// Sketching is always on so the similar op is live on every run.
		// Refine stays 0: the sketch-only ranking is what the oracle check
		// recomputes from introspected postings.
		Sketch: sketch.Config{Enabled: true, Dims: 32, RouteTerms: 3, Seed: uint64(c.Seed)},
	}
	if cacheOn {
		coreCfg.Cache = core.CacheConfig{Enabled: true}
	}
	spec := deploy.Spec{Peers: c.Peers, Prefix: "c", Seed: c.Seed, Core: coreCfg}
	if c.VirtualTime {
		spec.Virtual, spec.LinkDelay, spec.SleepLinks = true, chaosLinkDelay, true
	}
	dep, err := deploy.New(spec)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		Deployment:  dep,
		label:       label,
		nodes:       make(map[simnet.Addr]*chord.Node, c.Peers),
		tolerated:   make(map[entryKey]bool),
		sinceRepair: make(map[termDoc]bool),
		prev:        dep.Sim.Stats(),
	}
	for _, nd := range dep.Ring.Nodes() {
		d.nodes[nd.Addr()] = nd
	}
	return d, nil
}

// harness executes one operation sequence against the primary deployment
// (and optional twin) while tracking the shared fault model.
type harness struct {
	cfg  Config
	docs map[string]*corpus.Document
	pri  *deployment
	twin *deployment // nil unless cfg.Twin

	// Shared fault model: identical operations are applied to both
	// deployments, so one model describes both.
	failed map[string]bool
	shared map[string]bool
	// docOwner maps each shared document to the peer that shared it, so a
	// graceful leave can retire the departing owner's documents from the model.
	docOwner map[string]string
	loss     float64
	// taint: packet loss or scheduled drops have been active since the last
	// heal. Oracle and quiescent checks are gated until a heal, because loss
	// can silently corrupt ring maintenance itself.
	taint bool
	// churned: ring membership or liveness changed since the last heal, so
	// index placement may legitimately lag the oracle until a heal.
	churned       bool
	baseGoroutine int
}

func newHarness(cfg Config) (*harness, error) {
	pri, err := cfg.newDeployment("primary", cfg.Cache)
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg:           cfg,
		docs:          make(map[string]*corpus.Document),
		pri:           pri,
		failed:        make(map[string]bool),
		shared:        make(map[string]bool),
		docOwner:      make(map[string]string),
		baseGoroutine: runtime.NumGoroutine(),
	}
	for _, d := range docPool(cfg) {
		h.docs[string(d.ID)] = d
	}
	if cfg.Twin {
		twin, err := cfg.newDeployment("twin", false)
		if err != nil {
			return nil, err
		}
		h.twin = twin
	}
	return h, nil
}

func (h *harness) deployments() []*deployment {
	if h.twin != nil {
		return []*deployment{h.pri, h.twin}
	}
	return []*deployment{h.pri}
}

func (h *harness) faultsActive() bool {
	return h.loss > 0 || len(h.failed) > 0 || h.pri.Sim.PendingDrops() > 0
}

// quiescent reports whether the expensive oracle-placement checks are valid:
// no fault is active and nothing has perturbed the ring since the last heal.
func (h *harness) quiescent() bool {
	return !h.taint && !h.churned && !h.faultsActive()
}

// Execute runs ops (plus the mandatory final sweep) against a fresh harness
// and returns the first invariant violation, or nil.
func Execute(cfg Config, ops []Op) *Violation {
	v, _ := ExecuteDigest(cfg, ops)
	return v
}

// ExecuteDigest is Execute plus a digest of the final distributed state —
// every deployment's primary and replica snapshots and query-history
// multisets folded through FNV-1a. Two runs of the same configuration and
// sequence must return the same digest bit for bit; the mass-churn soak
// asserts exactly that on the virtual clock.
func ExecuteDigest(cfg Config, ops []Op) (*Violation, uint64) {
	cfg = cfg.withDefaults()
	h, err := newHarness(cfg)
	if err != nil {
		// Deployment construction is deterministic; failing to build is a
		// harness bug, not a system-under-test bug.
		panic(fmt.Sprintf("chaos: building deployment: %v", err))
	}
	i := 0
	for i < len(ops) {
		// Consecutive read ops run as one concurrent batch (bounded by
		// Parallelism); everything else executes one at a time.
		if j := i + readRun(ops[i:]); j > i && cfg.Parallelism > 1 {
			if v := h.runBatch(cfg.Seed, i, ops[i:j]); v != nil {
				return v, h.digest()
			}
			i = j
			continue
		}
		if v := h.runOne(cfg.Seed, i, ops[i]); v != nil {
			return v, h.digest()
		}
		i++
	}
	return h.finalSweep(cfg.Seed, len(ops)), h.digest()
}

// digest folds the observable distributed state of every deployment into one
// order-insensitive-where-it-must-be value: snapshots are already sorted, and
// history multisets are folded in sorted key order so concurrent read batches
// (which may interleave cache fills differently) cannot perturb it.
func (h *harness) digest() uint64 {
	hash := fnv.New64a()
	for _, d := range h.deployments() {
		fmt.Fprintf(hash, "deployment|%s\n", d.label)
		for _, e := range d.Net.PrimarySnapshot() {
			fmt.Fprintf(hash, "p|%s|%s|%s|%s|%d|%d\n",
				e.Peer, e.Term, e.Posting.Doc, e.Posting.Owner, e.Posting.Freq, e.Posting.DocLen)
		}
		for _, e := range d.Net.ReplicaSnapshot() {
			fmt.Fprintf(hash, "r|%s|%s|%s|%s|%d|%d\n",
				e.Peer, e.Term, e.Posting.Doc, e.Posting.Owner, e.Posting.Freq, e.Posting.DocLen)
		}
		hist := d.Net.HistoryMultiset()
		addrs := make([]string, 0, len(hist))
		for a := range hist {
			addrs = append(addrs, string(a))
		}
		sort.Strings(addrs)
		for _, a := range addrs {
			m := hist[simnet.Addr(a)]
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(hash, "h|%s|%s|%d\n", a, k, m[k])
			}
		}
	}
	return hash.Sum64()
}

// readRun returns the length of the leading run of read-only ops.
func readRun(ops []Op) int {
	n := 0
	for _, op := range ops {
		if !op.Kind.read() {
			break
		}
		n++
	}
	return n
}

// runOne applies a single op to every deployment and checks the per-step
// invariants.
func (h *harness) runOne(seed int64, step int, op Op) *Violation {
	before := h.faultsActive()
	if !h.effective(op) {
		// Precondition no longer holds (e.g. the shrinker removed the share
		// this unshare depended on): deterministic no-op, checks still run.
		h.sabotage()
		return h.checkStep(seed, step, &op, before)
	}
	if op.Kind == KHeal {
		if v := h.heal(); v != nil {
			return h.pin(v, seed, step, op)
		}
		h.sabotage()
		return h.checkStep(seed, step, &op, false)
	}
	outs := make([]opOut, 0, 2)
	for _, d := range h.deployments() {
		d.Run(func() { outs = append(outs, h.apply(d, op)) })
	}
	h.updateModel(op, outs[0].err == nil)
	h.sabotage()
	faultCtx := before || h.faultsActive()
	if v := h.checkOpOutcome(op, outs, faultCtx); v != nil {
		return h.pin(v, seed, step, op)
	}
	return h.checkStep(seed, step, &op, faultCtx)
}

// runBatch applies a run of read ops concurrently, then checks each op's
// outcome and the per-step invariants once.
func (h *harness) runBatch(seed int64, start int, batch []Op) *Violation {
	faultCtx := h.faultsActive() // read ops cannot change the fault model
	type slot struct{ outs []opOut }
	slots := make([]slot, len(batch))
	sem := make(chan struct{}, h.cfg.Parallelism)
	done := make(chan int, len(batch))
	for i := range batch {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; done <- i }()
			if !h.effective(batch[i]) {
				// e.g. a read op whose origin peer has since left the network:
				// deterministic no-op, exactly as in the sequential path.
				return
			}
			outs := make([]opOut, 0, 2)
			for _, d := range h.deployments() {
				d.Run(func() { outs = append(outs, h.apply(d, batch[i])) })
			}
			slots[i].outs = outs
		}(i)
	}
	for range batch {
		<-done
	}
	h.sabotage()
	for i, op := range batch {
		if v := h.checkOpOutcome(op, slots[i].outs, faultCtx); v != nil {
			return h.pin(v, seed, start+i, op)
		}
	}
	last := batch[len(batch)-1]
	return h.checkStep(seed, start+len(batch)-1, &last, faultCtx)
}

func (h *harness) sabotage() {
	if h.cfg.Sabotage != nil {
		h.cfg.Sabotage(h.pri.Net)
	}
}

func (h *harness) pin(v *Violation, seed int64, step int, op Op) *Violation {
	v.Seed = seed
	v.Step = step
	v.Op = op.String()
	return v
}

// checkStep runs the always-on invariants (telemetry conservation, index
// ledger) on every deployment, plus the quiescent oracle checks on epoch
// boundaries.
func (h *harness) checkStep(seed int64, step int, op *Op, faultCtx bool) *Violation {
	for _, d := range h.deployments() {
		if v := checkStats(d, len(h.failed), len(d.nodes)-len(h.failed)); v != nil {
			return h.pinMaybe(v, seed, step, op)
		}
		if v := checkLedger(d, faultCtx); v != nil {
			return h.pinMaybe(v, seed, step, op)
		}
	}
	epoch := (step+1)%h.cfg.EpochEvery == 0
	if epoch && h.quiescent() {
		for _, d := range h.deployments() {
			if v := checkStranded(d); v != nil {
				return h.pinMaybe(v, seed, step, op)
			}
			if v := checkPlacement(d); v != nil {
				return h.pinMaybe(v, seed, step, op)
			}
		}
	}
	if epoch && h.twin != nil {
		if v := checkHistories(h.pri, h.twin); v != nil {
			return h.pinMaybe(v, seed, step, op)
		}
	}
	return nil
}

func (h *harness) pinMaybe(v *Violation, seed int64, step int, op *Op) *Violation {
	v.Seed = seed
	v.Step = step
	if op != nil {
		v.Op = op.String()
	}
	return v
}

// finalSweep heals the network, withdraws every live document, runs one
// Repair, and verifies nothing leaked: the global index must be empty modulo
// the fault ledger, and the goroutine count must settle back to the baseline.
func (h *harness) finalSweep(seed int64, step int) *Violation {
	if v := h.heal(); v != nil {
		return h.pinMaybe(v, seed, step, nil)
	}
	for _, d := range h.deployments() {
		if v := checkStranded(d); v != nil {
			return h.pinMaybe(v, seed, step, nil)
		}
		if v := checkPlacement(d); v != nil {
			return h.pinMaybe(v, seed, step, nil)
		}
	}
	var docs []string
	for id := range h.shared {
		docs = append(docs, id)
	}
	sort.Strings(docs)
	for _, id := range docs {
		for _, d := range h.deployments() {
			var err error
			d.Run(func() { err = d.Net.Unshare(index.DocID(id)) })
			if err != nil {
				return h.pinMaybe(&Violation{
					Invariant: "leaks",
					Msg:       fmt.Sprintf("%s: unshare %s on healed network: %v", d.label, id, err),
				}, seed, step, nil)
			}
		}
		delete(h.shared, id)
	}
	for _, d := range h.deployments() {
		d.Run(func() { d.Net.Repair() })
		if v := h.afterRepair(d); v != nil {
			return h.pinMaybe(v, seed, step, nil)
		}
		if v := checkEmpty(d); v != nil {
			return h.pinMaybe(v, seed, step, nil)
		}
	}
	if v := h.checkGoroutines(); v != nil {
		return h.pinMaybe(v, seed, step, nil)
	}
	return nil
}

// afterRepair runs right after a Repair on a healed deployment: the sabotage
// hook (primary only), then the replica bound, and it opens the next
// between-repairs window with the pairs live now.
func (h *harness) afterRepair(d *deployment) *Violation {
	if d == h.pri {
		h.sabotage()
	}
	if v := checkReplicas(d); v != nil {
		return v
	}
	d.sinceRepair = livePairs(d)
	return nil
}

// checkGoroutines waits briefly for transient fan-out workers to exit, then
// compares against the pre-run baseline (invariant 5).
func (h *harness) checkGoroutines() *Violation {
	const slack = 4
	var now int
	for i := 0; i < 100; i++ {
		now = runtime.NumGoroutine()
		if now <= h.baseGoroutine+slack {
			return nil
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	return &Violation{
		Invariant: "leaks",
		Msg: fmt.Sprintf("goroutines did not settle after unshare-all: %d now vs %d at start",
			now, h.baseGoroutine),
	}
}

// docPool builds the deterministic shareable corpus. Term selection squares
// the uniform draw so low-numbered vocabulary words appear in many documents
// — the contended, high-DF regime where index consistency bugs live.
func docPool(cfg Config) []*corpus.Document {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed1e55))
	vocab := make([]string, cfg.Vocab)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	docs := make([]*corpus.Document, 0, cfg.Docs)
	for i := 0; i < cfg.Docs; i++ {
		tf := make(map[string]int)
		for j, n := 0, 5+rng.Intn(6); j < n; j++ {
			t := vocab[int(float64(cfg.Vocab)*rng.Float64()*rng.Float64())]
			tf[t] += 1 + rng.Intn(5)
		}
		docs = append(docs, corpus.NewDocument(index.DocID(fmt.Sprintf("doc%02d", i)), tf))
	}
	return docs
}
