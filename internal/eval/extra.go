package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// This file implements the supplementary systems-level experiments indexed
// in DESIGN.md: they quantify the cost and robustness arguments the paper
// makes qualitatively (§1, §7), plus an ablation of the §5.3 score formula.

// InsertCostResult compares the DHT traffic of publishing documents under
// selective indexing (SPRITE's ≤30-term budget) against indexing every term
// — the §1 argument for why full distributed indexing is impractical.
type InsertCostResult struct {
	Docs              int
	SelectiveMsgs     int64 // chord + publish messages, selective (initial share)
	SelectivePostings int
	FullMsgs          int64 // same, publishing every distinct term
	FullPostings      int
	MsgRatio          float64
}

// RunInsertCost shares the corpus twice on identical fresh networks: once
// with the configured initial-term budget and once publishing every distinct
// term of every document.
func RunInsertCost(cfg Config) (*InsertCostResult, error) {
	cfg = cfg.fillDefaults()
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}

	run := func(coreCfg core.Config) (int64, int, error) {
		dep, err := env.NewDeployment(coreCfg)
		if err != nil {
			return 0, 0, err
		}
		dep.Sim.ResetStats()
		if err := dep.ShareAll(); err != nil {
			return 0, 0, err
		}
		return dep.Sim.Stats().Calls, dep.Net.TotalPostings(), nil
	}

	selMsgs, selPost, err := run(cfg.Core)
	if err != nil {
		return nil, err
	}

	// Full indexing: the per-document budget covers every distinct term.
	maxTerms := 0
	for _, d := range env.Col.Corpus.Docs() {
		if len(d.TF) > maxTerms {
			maxTerms = len(d.TF)
		}
	}
	fullCfg := cfg.Core
	fullCfg.InitialTerms = maxTerms
	fullCfg.MaxIndexTerms = maxTerms
	fullMsgs, fullPost, err := run(fullCfg)
	if err != nil {
		return nil, err
	}

	res := &InsertCostResult{
		Docs:              env.Col.Corpus.N(),
		SelectiveMsgs:     selMsgs,
		SelectivePostings: selPost,
		FullMsgs:          fullMsgs,
		FullPostings:      fullPost,
	}
	if selMsgs > 0 {
		res.MsgRatio = float64(fullMsgs) / float64(selMsgs)
	}
	return res, nil
}

// Report renders the result; msg_ratio is each scheme's messages over the
// selective scheme's.
func (r *InsertCostResult) Report() *Report {
	return &Report{
		Title:   "Index construction cost: selective (SPRITE) vs full-term indexing",
		Columns: []Column{{"scheme", 0}, {"messages", 0}, {"postings", 0}, {"msg_ratio", 2}, {"docs", 0}},
		Rows: [][]any{
			{"selective", r.SelectiveMsgs, r.SelectivePostings, 1.0, r.Docs},
			{"full", r.FullMsgs, r.FullPostings, r.MsgRatio, r.Docs},
		},
	}
}

// AblationResult reports retrieval quality (ratio to centralized) for each
// learning score variant.
type AblationResult struct {
	Variants []core.ScoreVariant
	Metrics  []ir.Metrics // ratio to centralized at cfg.TopK
}

// RunScoreAblation runs the default experiment once per score variant,
// probing precision/recall at cfg.TopK. It quantifies the paper's §5.3
// argument that qScore and QF must be combined, with the logarithm damping
// QF. The budget is deliberately scarce (one iteration, 3 additions, cap 8)
// — with a loose budget every learnable candidate fits eventually and the
// ranking function cannot matter; only under scarcity do the variants
// separate.
func RunScoreAblation(cfg Config) (*AblationResult, error) {
	cfg = cfg.fillDefaults()
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	centralAbs := Measure(env.CentralSearcher(), env.Test, cfg.TopK)

	res := &AblationResult{}
	for _, v := range []core.ScoreVariant{
		core.ScoreQScoreLogQF, core.ScoreQScoreOnly, core.ScoreQFOnly, core.ScoreQScoreTimesQF,
	} {
		coreCfg := cfg.Core
		coreCfg.Score = v
		coreCfg.InitialTerms = 5
		coreCfg.TermsPerIteration = 3
		coreCfg.MaxIndexTerms = 8
		dep, err := env.NewDeployment(coreCfg)
		if err != nil {
			return nil, err
		}
		if err := dep.InsertQueries(env.Train); err != nil {
			return nil, err
		}
		if err := dep.ShareAll(); err != nil {
			return nil, err
		}
		// A single iteration with a 3-term budget: only the variant's top-3
		// candidates are admitted, so the ranking function is decisive.
		if err := dep.Learn(1); err != nil {
			return nil, err
		}
		abs := Measure(dep.SpriteSearcher(), env.Test, cfg.TopK)
		res.Variants = append(res.Variants, v)
		res.Metrics = append(res.Metrics, ir.Ratio(abs, centralAbs))
	}
	return res, nil
}

// Report renders the result.
func (r *AblationResult) Report() *Report {
	rep := &Report{
		Title:   "Score-function ablation (ratio to centralized)",
		Columns: []Column{{"variant", 0}, {"precision", 4}, {"recall", 4}},
	}
	for i, v := range r.Variants {
		rep.Rows = append(rep.Rows, []any{v.String(), r.Metrics[i].Precision, r.Metrics[i].Recall})
	}
	return rep
}

// ResilienceCounters snapshots the query path's fault-tolerance counters for
// one experiment arm.
type ResilienceCounters struct {
	Retries   int64 // sprite.resilience.retries
	Failovers int64 // sprite.resilience.failovers
	Partials  int64 // sprite.resilience.partials
}

func snapshotResilience(reg *telemetry.Registry) ResilienceCounters {
	return ResilienceCounters{
		Retries:   reg.Counter("sprite.resilience.retries").Value(),
		Failovers: reg.Counter("sprite.resilience.failovers").Value(),
		Partials:  reg.Counter("sprite.resilience.partials").Value(),
	}
}

// ChurnResult reports retrieval quality under two failure regimes.
//
// Dead-peer churn: a fraction of peers leaves the ring entirely; lookups
// route around the corpses, so what replication (§7) saves is the index
// state itself (Baseline / NoReplication / Replicated).
//
// Transient churn: the same fraction of peers stays in the ring but drops
// every call — alive to the overlay, unreachable to the read path. Only the
// resilient read path (retry + failover to the replica holder) can reach a
// replica, so FailoverOff vs FailoverOn isolates what the fault-tolerant
// query path buys on top of replication.
//
// Replicas are made by Repair's anti-entropy alone. Replicated and
// FailoverOn inject their faults in the window before any Repair, when no
// replica exists yet; ReplicatedRepaired and FailoverOnRepaired inject the
// same faults after one Repair.
type ChurnResult struct {
	FailedFraction float64
	Baseline       ir.Metrics // ratio to centralized, healthy network
	NoReplication  ir.Metrics // after failures, ReplicationFactor = 0
	Replicated     ir.Metrics // after failures, ReplicationFactor > 0, no Repair yet
	// ReplicatedRepaired is Replicated with one Repair before the failures.
	ReplicatedRepaired ir.Metrics
	Replicas           int
	// PostingsLost is the fraction of primary index postings stored on the
	// failed peers — the state replication must cover.
	PostingsLost float64

	// Transient-churn arms: both run with ReplicationFactor = Replicas and the
	// failed fraction dropping every call addressed to them.
	FailoverOff ir.Metrics // zero resilience: single attempt, no failover
	FailoverOn  ir.Metrics // retries + failover to replica holders
	Off         ResilienceCounters
	On          ResilienceCounters
	// FailoverOnRepaired / OnRepaired are FailoverOn / On with one Repair
	// before the faults.
	FailoverOnRepaired ir.Metrics
	OnRepaired         ResilienceCounters

	// Peer-driven placement arms: the ring grows by JoinedPeers fresh peers,
	// then those same peers retire gracefully. No learning sweep runs in
	// either arm — placement recovery is entirely the repair subsystem's
	// doing (join-time handoff via arc-change hooks, graceful-leave handoff,
	// Merkle anti-entropy), so AfterMassJoin / AfterMassLeave holding the
	// healthy baseline is the tentpole's recall-recovery claim.
	AfterMassJoin  ir.Metrics
	AfterMassLeave ir.Metrics
	JoinedPeers    int
	// JoinMoved / LeaveMoved count primary entries relocated per wave, and
	// IndexPostings the total primary postings before the waves: moved over
	// total is the repair-cost ratio, O(arc moved) rather than O(index) as
	// re-publishing every entry would be.
	JoinMoved     int
	LeaveMoved    int
	IndexPostings int
	// JoinRepairMsgs / LeaveRepairMsgs count repair-protocol calls (handoff,
	// relocate, digest, push) issued during each wave.
	JoinRepairMsgs  int64
	LeaveRepairMsgs int64
}

// RunChurn builds identical deployments, trains and learns, injects faults
// into the given fraction of peers, and probes retrieval quality.
//
// Dead-peer arms (replication off/on) fail the peers outright: lookups route
// around them and the question is whether the index state survives. Documents
// owned by failed peers remain judged (their owners are gone, but their index
// entries — and with replication, the replicas — survive at other peers).
//
// Transient arms (failover off/on, both with replication) keep the faulty
// peers alive but drop every call addressed to them, the failure signature
// retries and replica failover exist for; each arm runs under its own
// telemetry registry so its resilience counters are separable. The repaired
// arms run one Repair between learning and the faults.
func RunChurn(cfg Config, failFraction float64, replicas int) (*ChurnResult, error) {
	cfg = cfg.fillDefaults()
	if failFraction < 0 || failFraction >= 1 {
		return nil, fmt.Errorf("eval: failFraction %v out of [0,1)", failFraction)
	}
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	centralAbs := Measure(env.CentralSearcher(), env.Test, cfg.TopK)

	build := func(coreCfg core.Config, repaired bool) (*Deployment, error) {
		dep, err := env.NewDeployment(coreCfg)
		if err != nil {
			return nil, err
		}
		if err := dep.InsertQueries(env.Train); err != nil {
			return nil, err
		}
		if err := dep.ShareAll(); err != nil {
			return nil, err
		}
		if err := dep.Learn(cfg.LearningIterations); err != nil {
			return nil, err
		}
		if repaired {
			dep.Net.Repair()
		}
		return dep, nil
	}

	// The same seeded permutation picks the faulty peers in every arm.
	faulty := func(dep *Deployment) []*chord.Node {
		nodes := dep.Ring.Nodes()
		rng := rand.New(rand.NewSource(cfg.Seed + 99))
		toFail := int(failFraction * float64(len(nodes)))
		picked := make([]*chord.Node, 0, toFail)
		for _, i := range rng.Perm(len(nodes))[:toFail] {
			picked = append(picked, nodes[i])
		}
		return picked
	}

	res := &ChurnResult{FailedFraction: failFraction, Replicas: replicas}

	withReplication := cfg.Core
	withReplication.ReplicationFactor = replicas
	noReplication := cfg.Core
	noReplication.ReplicationFactor = 0

	noRep, err := build(noReplication, false)
	if err != nil {
		return nil, err
	}
	res.Baseline = ir.Ratio(Measure(noRep.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)
	for _, n := range faulty(noRep) {
		noRep.Ring.Fail(n)
	}
	res.NoReplication = ir.Ratio(Measure(noRep.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)
	total, lost := 0, 0
	for _, p := range noRep.Net.Peers() {
		n := p.Index().NumPostings()
		total += n
		if !noRep.Sim.Alive(p.Addr()) {
			lost += n
		}
	}
	if total > 0 {
		res.PostingsLost = float64(lost) / float64(total)
	}

	dead := func(repaired bool) (ir.Metrics, error) {
		rep, err := build(withReplication, repaired)
		if err != nil {
			return ir.Metrics{}, err
		}
		for _, n := range faulty(rep) {
			rep.Ring.Fail(n)
		}
		return ir.Ratio(Measure(rep.SpriteSearcher(), env.Test, cfg.TopK), centralAbs), nil
	}
	if res.Replicated, err = dead(false); err != nil {
		return nil, err
	}
	if res.ReplicatedRepaired, err = dead(true); err != nil {
		return nil, err
	}

	// Transient arms: the faulty peers stay alive (so lookups still resolve
	// them as holders — chord only routes around the dead) but drop every call
	// addressed to them, and the faulty set rotates mid-stream — every
	// interval queries the current set recovers and a freshly drawn one starts
	// dropping. Both arms replay the same seeded fault schedule, so the only
	// difference is the read path. Each arm gets its own registry, otherwise
	// the two arms' counters would blend.
	rotateEvery := cfg.ChurnRotateEvery
	if rotateEvery <= 0 {
		rotateEvery = (len(env.Test) + 3) / 4
	}
	transient := func(rc core.ResilienceConfig, repaired bool) (ir.Metrics, ResilienceCounters, error) {
		reg := telemetry.NewRegistry()
		saved := env.Cfg.Telemetry
		env.Cfg.Telemetry = reg
		coreCfg := withReplication
		coreCfg.Resilience = rc
		dep, err := build(coreCfg, repaired)
		env.Cfg.Telemetry = saved
		if err != nil {
			return ir.Metrics{}, ResilienceCounters{}, err
		}
		nodes := dep.Ring.Nodes()
		toFail := int(failFraction * float64(len(nodes)))
		rng := rand.New(rand.NewSource(cfg.Seed + 99))
		var down []simnet.Addr
		rotate := func() {
			for _, a := range down {
				dep.Sim.DropCalls(a, 0) // recover
			}
			down = down[:0]
			for _, i := range rng.Perm(len(nodes))[:toFail] {
				a := nodes[i].Addr()
				down = append(down, a)
				dep.Sim.DropCalls(a, 1<<30)
			}
		}
		rotate()
		base := dep.SpriteSearcher()
		issued := 0
		churny := func(terms []string, k int) ir.RankedList {
			if issued > 0 && issued%rotateEvery == 0 {
				rotate()
			}
			issued++
			return base(terms, k)
		}
		m := ir.Ratio(Measure(churny, env.Test, cfg.TopK), centralAbs)
		return m, snapshotResilience(reg), nil
	}

	res.FailoverOff, res.Off, err = transient(core.ResilienceConfig{}, false)
	if err != nil {
		return nil, err
	}
	failover := core.ResilienceConfig{
		MaxRetries:         2,
		BaseBackoff:        100 * time.Microsecond,
		FailoverToReplicas: true,
		JitterSeed:         cfg.Seed + 7,
	}
	if res.FailoverOn, res.On, err = transient(failover, false); err != nil {
		return nil, err
	}
	if res.FailoverOnRepaired, res.OnRepaired, err = transient(failover, true); err != nil {
		return nil, err
	}

	// Peer-driven placement arms: a fresh, healthy deployment grows by a wave
	// of joining peers and later shrinks back as the same peers retire
	// gracefully. Recovery is the repair subsystem's alone — arc-change
	// handoffs fire during stabilization, Repair() finishes leftovers and
	// reconciles replica sets — with no learning sweep in either arm.
	place, err := build(withReplication, false)
	if err != nil {
		return nil, err
	}
	for _, p := range place.Net.Peers() {
		res.IndexPostings += p.Index().NumPostings()
	}
	repairMsgs := func() int64 {
		var n int64
		for typ, c := range place.Sim.Stats().CallsByType {
			if strings.HasPrefix(typ, "sprite.repair.") || typ == "sprite.relocate" {
				n += c
			}
		}
		return n
	}
	holders := func() map[string]simnet.Addr {
		m := make(map[string]simnet.Addr, res.IndexPostings)
		for _, e := range place.Net.PrimarySnapshot() {
			m[e.Term+"\x00"+string(e.Posting.Doc)] = e.Peer
		}
		return m
	}
	movedBetween := func(before, after map[string]simnet.Addr) int {
		n := 0
		for k, was := range before {
			if now, ok := after[k]; ok && now != was {
				n++
			}
		}
		return n
	}
	res.JoinedPeers = int(failFraction * float64(cfg.Peers))
	if res.JoinedPeers < 1 {
		res.JoinedPeers = 1
	}
	boot := place.Ring.Nodes()[0]
	preJoin, preMsgs := holders(), repairMsgs()
	for i := 0; i < res.JoinedPeers; i++ {
		node, err := place.Ring.AddNode(fmt.Sprintf("x%d", i))
		if err != nil {
			return nil, err
		}
		place.Net.Adopt(node)
		if err := node.Join(boot); err != nil {
			return nil, err
		}
		place.Ring.StabilizeLists(64)
		place.Ring.RepairFingers()
		place.Net.InvalidateCaches()
	}
	place.Net.Repair()
	place.Net.FlushStaleAll()
	res.JoinMoved = movedBetween(preJoin, holders())
	res.JoinRepairMsgs = repairMsgs() - preMsgs
	res.AfterMassJoin = ir.Ratio(Measure(place.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)

	preLeave, preMsgs2 := holders(), repairMsgs()
	for i := 0; i < res.JoinedPeers; i++ {
		if _, err := place.Net.Leave(simnet.Addr(fmt.Sprintf("x%d", i))); err != nil {
			return nil, err
		}
		place.Ring.StabilizeLists(64)
		place.Ring.RepairFingers()
		place.Net.InvalidateCaches()
	}
	place.Net.Repair()
	place.Net.FlushStaleAll()
	res.LeaveMoved = movedBetween(preLeave, holders())
	res.LeaveRepairMsgs = repairMsgs() - preMsgs2
	res.AfterMassLeave = ir.Ratio(Measure(place.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)
	return res, nil
}

// Report renders the result, one row per arm. The resilience counters
// (sprite.resilience.*) come from each transient arm's own registry; faulty
// is the fraction of peers failed or dropping calls in the arm, and
// postings_lost the fraction of primary postings the dead peers held. A
// _repaired row injects its window row's faults after one Repair. moved
// counts primary entries that changed holder during a membership wave, and
// the index_total row's moved the whole index that re-publishing every
// entry would move.
func (r *ChurnResult) Report() *Report {
	rep := &Report{
		Title: "Churn: dead and transient faults, and membership waves repaired without owners (ratios to centralized)",
		Columns: []Column{
			{"state", 0}, {"precision", 4}, {"recall", 4},
			{"retries", 0}, {"failovers", 0}, {"partials", 0},
			{"moved", 0}, {"repair_msgs", 0}, {"faulty", 2}, {"postings_lost", 4},
		},
	}
	row := func(state string, m ir.Metrics, c ResilienceCounters, moved int, msgs int64, faulty, lost float64) {
		rep.Rows = append(rep.Rows, []any{state, m.Precision, m.Recall,
			c.Retries, c.Failovers, c.Partials, moved, msgs, faulty, lost})
	}
	none := ResilienceCounters{}
	f := r.FailedFraction
	row("healthy", r.Baseline, none, 0, 0, 0, 0)
	row("dead_no_replication", r.NoReplication, none, 0, 0, f, r.PostingsLost)
	row(fmt.Sprintf("dead_%d_replicas", r.Replicas), r.Replicated, none, 0, 0, f, r.PostingsLost)
	row(fmt.Sprintf("dead_%d_replicas_repaired", r.Replicas), r.ReplicatedRepaired, none, 0, 0, f, r.PostingsLost)
	row("transient_failover_off", r.FailoverOff, r.Off, 0, 0, f, 0)
	row("transient_failover_on", r.FailoverOn, r.On, 0, 0, f, 0)
	row("transient_failover_on_repaired", r.FailoverOnRepaired, r.OnRepaired, 0, 0, f, 0)
	row(fmt.Sprintf("mass_join_%d_repair", r.JoinedPeers), r.AfterMassJoin, none, r.JoinMoved, r.JoinRepairMsgs, 0, 0)
	row(fmt.Sprintf("mass_leave_%d_repair", r.JoinedPeers), r.AfterMassLeave, none, r.LeaveMoved, r.LeaveRepairMsgs, 0, 0)
	row("index_total", ir.Metrics{}, none, r.IndexPostings, 0, 0, 0)
	return rep
}
