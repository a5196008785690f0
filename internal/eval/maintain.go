package eval

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/telemetry"
)

// MaintenanceResult compares the two recovery mechanisms the paper offers
// for peer failure (§1's owner probing made effectful, and §7's successor
// replication) on the same churn event.
type MaintenanceResult struct {
	FailedFraction float64
	Healthy        ir.Metrics // ratio to centralized before failures
	Degraded       ir.Metrics // after failures, no recovery
	AfterSweep     ir.Metrics // after failures + one learning sweep
	Replicated     ir.Metrics // after failures, replication on but no Repair yet
	// ReplicatedRepaired is Replicated with one Repair, which makes the
	// replicas, before the failures; RepairMsgs is that Repair's messages.
	ReplicatedRepaired ir.Metrics
	RepairMsgs         int64
	SweepMoved         int64 // postings the sweep re-anchored
	SweepMsgs          int64 // messages the sweep cost
	Replicas           int
}

// RunMaintenance trains and learns a deployment, fails a fraction of peers,
// and measures retrieval quality (a) degraded, (b) after the owners run one
// more learning sweep, whose polls find the failed peers' postings missing at
// the failover peers and re-publish them there, and (c) on an identical
// deployment that had successor replication on from the start, failed
// before any Repair and, once more, after one.
func RunMaintenance(cfg Config, failFraction float64, replicas int) (*MaintenanceResult, error) {
	cfg = cfg.fillDefaults()
	if failFraction < 0 || failFraction >= 1 {
		return nil, fmt.Errorf("eval: failFraction %v out of [0,1)", failFraction)
	}
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	// The sweep's re-anchors are read off the deployment's registry.
	if env.Cfg.Telemetry == nil {
		env.Cfg.Telemetry = telemetry.NewRegistry()
	}
	reanchored := env.Cfg.Telemetry.Counter("sprite.learn.reanchored")
	centralAbs := Measure(env.CentralSearcher(), env.Test, cfg.TopK)

	build := func(reps int) (*Deployment, error) {
		coreCfg := cfg.Core
		coreCfg.ReplicationFactor = reps
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
		return dep, nil
	}
	fail := func(dep *Deployment) {
		nodes := dep.Ring.Nodes()
		rng := rand.New(rand.NewSource(cfg.Seed + 77))
		for _, i := range rng.Perm(len(nodes))[:int(failFraction*float64(len(nodes)))] {
			dep.Ring.Fail(nodes[i])
		}
	}

	res := &MaintenanceResult{FailedFraction: failFraction, Replicas: replicas}

	plain, err := build(0)
	if err != nil {
		return nil, err
	}
	res.Healthy = ir.Ratio(Measure(plain.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)
	fail(plain)
	res.Degraded = ir.Ratio(Measure(plain.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)

	before, moved := plain.Sim.Stats().Calls, reanchored.Value()
	if _, err := plain.Net.LearnAllCtx(context.Background()); err != nil {
		return nil, err
	}
	res.SweepMoved = reanchored.Value() - moved
	res.SweepMsgs = plain.Sim.Stats().Calls - before
	res.AfterSweep = ir.Ratio(Measure(plain.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)

	rep, err := build(replicas)
	if err != nil {
		return nil, err
	}
	fail(rep)
	res.Replicated = ir.Ratio(Measure(rep.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)

	if rep, err = build(replicas); err != nil {
		return nil, err
	}
	before = rep.Sim.Stats().Calls
	rep.Net.Repair()
	res.RepairMsgs = rep.Sim.Stats().Calls - before
	fail(rep)
	res.ReplicatedRepaired = ir.Ratio(Measure(rep.SpriteSearcher(), env.Test, cfg.TopK), centralAbs)
	return res, nil
}

// Report renders the result; moved and msgs are what the owners' learning
// sweep re-anchored and cost — msgs, on the _repaired row, what its Repair
// cost — and faulty the fraction of peers failed.
func (r *MaintenanceResult) Report() *Report {
	f := r.FailedFraction
	return &Report{
		Title:   "Recovery after failing peers: a learning sweep vs successor replication (ratios to centralized)",
		Columns: []Column{{"state", 0}, {"precision", 4}, {"recall", 4}, {"moved", 0}, {"msgs", 0}, {"faulty", 2}},
		Rows: [][]any{
			{"healthy", r.Healthy.Precision, r.Healthy.Recall, int64(0), int64(0), 0.0},
			{"degraded", r.Degraded.Precision, r.Degraded.Recall, int64(0), int64(0), f},
			{"after_sweep", r.AfterSweep.Precision, r.AfterSweep.Recall, r.SweepMoved, r.SweepMsgs, f},
			{fmt.Sprintf("replicated_%d", r.Replicas), r.Replicated.Precision, r.Replicated.Recall, int64(0), int64(0), f},
			{fmt.Sprintf("replicated_%d_repaired", r.Replicas), r.ReplicatedRepaired.Precision, r.ReplicatedRepaired.Recall, int64(0), r.RepairMsgs, f},
		},
	}
}
