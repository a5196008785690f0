package eval

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/querygen"
	"github.com/spritedht/sprite/internal/simnet"
)

// tiny returns a configuration small enough for unit tests but large enough
// for the learning dynamics to be visible.
func tiny() Config {
	return Config{
		Corpus:             corpus.SynthConfig{NumDocs: 300, NumTopics: 4, NumQueries: 12, Seed: 17},
		QueryGen:           querygen.Config{PerOriginal: 4, Seed: 23},
		Peers:              16,
		TopK:               20,
		LearningIterations: 3,
		TrainFraction:      0.5,
		Seed:               31,
	}
}

func TestSetupSplitsQueries(t *testing.T) {
	env, err := Setup(tiny())
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	total := len(env.Train) + len(env.Test)
	if total != len(env.Gen.Queries) {
		t.Fatalf("split lost queries: %d + %d != %d", len(env.Train), len(env.Test), len(env.Gen.Queries))
	}
	if len(env.Train) == 0 || len(env.Test) == 0 {
		t.Fatal("degenerate split")
	}
	diff := len(env.Train) - len(env.Test)
	if diff < -1 || diff > 1 {
		t.Fatalf("split not even: %d vs %d", len(env.Train), len(env.Test))
	}
	// No query in both sets.
	seen := map[string]bool{}
	for _, q := range env.Train {
		seen[q.ID] = true
	}
	for _, q := range env.Test {
		if seen[q.ID] {
			t.Fatalf("query %s in both train and test", q.ID)
		}
	}
}

func TestSetupDeterministic(t *testing.T) {
	a, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Train) != len(b.Train) {
		t.Fatal("train sizes differ across identical configs")
	}
	for i := range a.Train {
		if a.Train[i].ID != b.Train[i].ID {
			t.Fatal("train order differs across identical configs")
		}
	}
}

func TestDeploymentShareAndMeasure(t *testing.T) {
	env, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := env.NewDeployment(env.Cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.InsertQueries(env.Train); err != nil {
		t.Fatal(err)
	}
	if err := dep.ShareAll(); err != nil {
		t.Fatal(err)
	}
	if got := len(dep.Net.Documents()); got != 300 {
		t.Fatalf("shared %d docs, want 300", got)
	}
	m := Measure(dep.SpriteSearcher(), env.Test, 20)
	if m.Precision <= 0 || m.Precision > 1 {
		t.Fatalf("precision out of range: %v", m.Precision)
	}
	central := Measure(env.CentralSearcher(), env.Test, 20)
	if central.Precision < m.Precision {
		t.Fatalf("centralized (%v) worse than SPRITE (%v) before learning", central.Precision, m.Precision)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	env, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := env.NewDeployment(env.Cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.ShareAll(); err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, p := range dep.Net.Peers() {
		before += p.HistoryLen()
	}
	Measure(dep.SpriteSearcher(), env.Test, 20)
	after := 0
	for _, p := range dep.Net.Peers() {
		after += p.HistoryLen()
	}
	if after != before {
		t.Fatalf("probing leaked %d queries into histories", after-before)
	}
}

func TestLearningImprovesRetrieval(t *testing.T) {
	// The central claim of the paper, as an executable assertion: learning
	// iterations improve precision and recall relative to the unlearned
	// (5-term) index.
	env, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := env.NewDeployment(env.Cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.InsertQueries(env.Train); err != nil {
		t.Fatal(err)
	}
	if err := dep.ShareAll(); err != nil {
		t.Fatal(err)
	}
	before := Measure(dep.SpriteSearcher(), env.Test, 20)
	if err := dep.Learn(3); err != nil {
		t.Fatal(err)
	}
	after := Measure(dep.SpriteSearcher(), env.Test, 20)
	if after.Precision <= before.Precision {
		t.Fatalf("precision did not improve: %.3f -> %.3f", before.Precision, after.Precision)
	}
	if after.Recall <= before.Recall {
		t.Fatalf("recall did not improve: %.3f -> %.3f", before.Recall, after.Recall)
	}
}

func TestRunFig4aShape(t *testing.T) {
	res, err := RunFig4a(tiny())
	if err != nil {
		t.Fatalf("RunFig4a: %v", err)
	}
	if len(res.Ks) != 6 || len(res.Sprite) != 6 || len(res.ESearch) != 6 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	for i := range res.Ks {
		if res.Sprite[i].Precision <= 0 || res.Sprite[i].Precision > 1.2 {
			t.Fatalf("sprite ratio out of plausible range at K=%d: %v", res.Ks[i], res.Sprite[i])
		}
	}
	// The paper's headline: SPRITE outperforms the static scheme at larger
	// answer counts (K >= 15).
	for i, k := range res.Ks {
		if k >= 15 && res.Sprite[i].Precision < res.ESearch[i].Precision {
			t.Errorf("K=%d: SPRITE (%.3f) below eSearch (%.3f)", k,
				res.Sprite[i].Precision, res.ESearch[i].Precision)
		}
	}
	if got := len(res.Report().Rows); got != len(res.Ks) {
		t.Fatalf("report has %d rows, want %d", got, len(res.Ks))
	}
}

func TestRunFig4bShape(t *testing.T) {
	res, err := RunFig4b(tiny(), WithoutRepeats)
	if err != nil {
		t.Fatalf("RunFig4b: %v", err)
	}
	if len(res.Terms) != 6 {
		t.Fatalf("checkpoints = %v", res.Terms)
	}
	// At 5 terms no learning has happened: the systems must coincide.
	if d := res.Sprite[0].Precision - res.ESearch[0].Precision; d < -1e-9 || d > 1e-9 {
		t.Fatalf("at 5 terms SPRITE (%.4f) != eSearch (%.4f)", res.Sprite[0].Precision, res.ESearch[0].Precision)
	}
	// SPRITE must not lose to eSearch at any larger budget.
	for i := 1; i < len(res.Terms); i++ {
		if res.Sprite[i].Precision < res.ESearch[i].Precision {
			t.Errorf("terms=%d: SPRITE (%.3f) below eSearch (%.3f)",
				res.Terms[i], res.Sprite[i].Precision, res.ESearch[i].Precision)
		}
	}
	// More terms must not hurt SPRITE substantially (monotone-ish growth).
	if res.Sprite[5].Precision+0.05 < res.Sprite[0].Precision {
		t.Errorf("precision decreased with more terms: %v", res.Sprite)
	}
}

func TestRunFig4bZipfVariant(t *testing.T) {
	res, err := RunFig4b(tiny(), WithZipf)
	if err != nil {
		t.Fatalf("RunFig4b zipf: %v", err)
	}
	if res.Variant != WithZipf {
		t.Fatalf("variant = %q", res.Variant)
	}
	if _, err := RunFig4b(tiny(), Fig4bVariant("bogus")); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func TestRunFig4cShape(t *testing.T) {
	res, err := RunFig4c(tiny())
	if err != nil {
		t.Fatalf("RunFig4c: %v", err)
	}
	if len(res.Iterations) != 10 || res.SwitchAt != 6 {
		t.Fatalf("unexpected shape: %+v", res.Iterations)
	}
	// Learning improves within the first phase.
	if res.Sprite[4].Precision <= res.Sprite[0].Precision {
		t.Errorf("no improvement across first phase: %.3f -> %.3f",
			res.Sprite[0].Precision, res.Sprite[4].Precision)
	}
	// Recovery: by the end of phase 2, SPRITE exceeds its value at the
	// switch point.
	if res.Sprite[9].Precision <= res.Sprite[5].Precision {
		t.Errorf("no recovery after pattern change: %.3f -> %.3f",
			res.Sprite[5].Precision, res.Sprite[9].Precision)
	}
}

// TestRunChordHops pins the O(log N) routing bound the overlay inherits from
// Chord: iterative lookups from random nodes to hashed keys average at most
// log2 N + 2 hops, and the average grows with the ring.
func TestRunChordHops(t *testing.T) {
	var avg []float64
	for _, size := range []int{8, 32} {
		ring := chord.NewRing(simnet.New(1), chord.Config{})
		if _, err := ring.AddNodes("n", size); err != nil {
			t.Fatal(err)
		}
		ring.Build()
		nodes := ring.Nodes()
		rng := rand.New(rand.NewSource(1 + int64(size)))
		const trials = 50
		total := 0
		for i := 0; i < trials; i++ {
			key := chordid.HashKey(fmt.Sprintf("k-%d-%d", size, i))
			_, hops, err := nodes[rng.Intn(len(nodes))].Lookup(key)
			if err != nil {
				t.Fatalf("N=%d: Lookup: %v", size, err)
			}
			total += hops
		}
		a := float64(total) / trials
		if a > math.Log2(float64(size))+2 {
			t.Errorf("N=%d: avg hops %.2f above log2N+2", size, a)
		}
		avg = append(avg, a)
	}
	if avg[1] <= avg[0] {
		t.Errorf("hops did not grow with network size: %v", avg)
	}
}

func TestRunInsertCost(t *testing.T) {
	cfg := tiny()
	cfg.Corpus.NumDocs = 100
	res, err := RunInsertCost(cfg)
	if err != nil {
		t.Fatalf("RunInsertCost: %v", err)
	}
	if res.MsgRatio <= 2 {
		t.Fatalf("full indexing only %.1fx costlier — selective indexing should be much cheaper", res.MsgRatio)
	}
	if res.FullPostings <= res.SelectivePostings {
		t.Fatal("full indexing stored fewer postings than selective")
	}
}

func TestRunScoreAblation(t *testing.T) {
	cfg := tiny()
	res, err := RunScoreAblation(cfg)
	if err != nil {
		t.Fatalf("RunScoreAblation: %v", err)
	}
	if len(res.Variants) != 4 {
		t.Fatalf("variants = %v", res.Variants)
	}
	for i, m := range res.Metrics {
		if m.Precision <= 0 {
			t.Errorf("variant %v produced zero precision", res.Variants[i])
		}
	}
}

func TestRunChurn(t *testing.T) {
	cfg := tiny()
	res, err := RunChurn(cfg, 0.25, 2)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if res.PostingsLost <= 0 {
		t.Fatal("no postings reported lost at 25% failures")
	}
	// Before any Repair there is no replica: the window arm reads what no
	// replication reads. After one, replication must not be worse.
	if res.Replicated != res.NoReplication {
		t.Errorf("dead peers before any Repair: %+v with replication, %+v without", res.Replicated, res.NoReplication)
	}
	if res.ReplicatedRepaired.Precision+1e-9 < res.NoReplication.Precision {
		t.Errorf("replication hurt precision: %.3f vs %.3f",
			res.ReplicatedRepaired.Precision, res.NoReplication.Precision)
	}
	// Under transient churn after a Repair the resilient read path must not
	// be worse than the bare one, and its counters must show it actually
	// worked: retries against the dropped holders, then failovers to the
	// replica holders.
	if res.FailoverOnRepaired.Recall+1e-9 < res.FailoverOff.Recall {
		t.Errorf("failover hurt recall: %.3f vs %.3f",
			res.FailoverOnRepaired.Recall, res.FailoverOff.Recall)
	}
	if res.OnRepaired.Retries == 0 || res.OnRepaired.Failovers == 0 {
		t.Errorf("failover-on arm counters flat: %+v", res.OnRepaired)
	}
	if res.Off != (ResilienceCounters{Partials: res.Off.Partials}) {
		t.Errorf("failover-off arm retried or failed over: %+v", res.Off)
	}
	// Mass-join/mass-leave arms: recall must recover to the healthy baseline
	// with no learning sweep — placement recovery is peer-driven.
	if res.JoinedPeers < 1 {
		t.Fatalf("no peers joined in the mass-join arm")
	}
	if res.AfterMassJoin.Recall+1e-9 < res.Baseline.Recall {
		t.Errorf("recall after mass join %.3f below healthy %.3f despite repair",
			res.AfterMassJoin.Recall, res.Baseline.Recall)
	}
	if res.AfterMassLeave.Recall+1e-9 < res.Baseline.Recall {
		t.Errorf("recall after mass leave %.3f below healthy %.3f despite repair",
			res.AfterMassLeave.Recall, res.Baseline.Recall)
	}
	// Repair cost is O(entries in the changed arcs), not O(index): each wave
	// must move a strict minority of the index, where re-publishing every
	// entry would move all of it.
	if res.IndexPostings == 0 {
		t.Fatal("no index postings counted in the placement arms")
	}
	if res.JoinMoved == 0 {
		t.Error("mass join moved no entries: the join handoff did not run")
	}
	if res.JoinMoved*2 >= res.IndexPostings {
		t.Errorf("mass join moved %d of %d postings, want a strict minority",
			res.JoinMoved, res.IndexPostings)
	}
	if res.LeaveMoved == 0 {
		t.Error("mass leave moved no entries: the leave handoff did not run")
	}
	if res.LeaveMoved*2 >= res.IndexPostings {
		t.Errorf("mass leave moved %d of %d postings, want a strict minority",
			res.LeaveMoved, res.IndexPostings)
	}
	if _, err := RunChurn(cfg, 1.5, 2); err == nil {
		t.Fatal("failFraction > 1 accepted")
	}
}

func TestMeasureAtConsistency(t *testing.T) {
	// MeasureAt's prefix evaluation must agree with Measure at each depth.
	env, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := env.CentralSearcher()
	multi := MeasureAt(s, env.Test, []int{5, 20})
	single5 := Measure(s, env.Test, 5)
	if multi[5] != single5 {
		t.Fatalf("MeasureAt[5] = %+v, Measure(5) = %+v", multi[5], single5)
	}
}

func TestInsertZipfStreamEdgeCases(t *testing.T) {
	env, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := env.NewDeployment(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.InsertZipfQueryStream(nil, 100, 0.5, 1); err != nil {
		t.Fatalf("empty query set: %v", err)
	}
	if err := dep.InsertZipfQueryStream(env.Train, 0, 0.5, 1); err != nil {
		t.Fatalf("zero volume: %v", err)
	}
	if err := dep.InsertZipfQueryStream(env.Train[:3], 50, 0.5, 1); err != nil {
		t.Fatalf("zipf stream: %v", err)
	}
	total := 0
	for _, p := range dep.Net.Peers() {
		total += p.HistoryLen()
	}
	if total == 0 {
		t.Fatal("zipf stream cached nothing")
	}
}

func TestRunExpansion(t *testing.T) {
	res, err := RunExpansion(tiny())
	if err != nil {
		t.Fatalf("RunExpansion: %v", err)
	}
	if len(res.Depths) != 4 || res.Depths[0] != 0 {
		t.Fatalf("depths = %v", res.Depths)
	}
	if res.ExtraMessages[0] != 0 {
		t.Fatalf("baseline extra messages = %v, want 0", res.ExtraMessages[0])
	}
	for i := 1; i < len(res.Depths); i++ {
		if res.ExtraMessages[i] <= 0 {
			t.Errorf("expansion depth %d reported no extra messages", res.Depths[i])
		}
		if res.Metrics[i].Precision <= 0 {
			t.Errorf("expansion depth %d produced zero precision", res.Depths[i])
		}
	}
	if got := len(res.Report().Rows); got != len(res.Depths) {
		t.Fatalf("report has %d rows, want %d", got, len(res.Depths))
	}
}

func TestRunMaintenance(t *testing.T) {
	res, err := RunMaintenance(tiny(), 0.25, 2)
	if err != nil {
		t.Fatalf("RunMaintenance: %v", err)
	}
	// Losing index entries must not improve recall (precision can rise on
	// small corpora — shorter result lists are purer — so recall is the
	// monotone signal for data loss).
	if res.Degraded.Recall > res.Healthy.Recall+1e-9 {
		t.Errorf("degraded recall %v above healthy %v", res.Degraded.Recall, res.Healthy.Recall)
	}
	// One learning sweep must restore recall to (at least) the healthy
	// level: every lost entry is found missing and re-published to a live
	// peer.
	if res.AfterSweep.Recall+1e-9 < res.Healthy.Recall {
		t.Errorf("the sweep did not restore recall: healthy %v, after the sweep %v",
			res.Healthy.Recall, res.AfterSweep.Recall)
	}
	if res.SweepMoved == 0 {
		t.Error("the sweep re-anchored no postings despite 25% failures")
	}
	if res.SweepMsgs == 0 {
		t.Error("the sweep reported zero message cost")
	}
	// Replicas made by one Repair keep recall above the degraded level.
	if res.RepairMsgs == 0 || res.ReplicatedRepaired.Recall < res.Degraded.Recall {
		t.Errorf("replicated after a Repair of %d messages: recall %v, degraded %v",
			res.RepairMsgs, res.ReplicatedRepaired.Recall, res.Degraded.Recall)
	}
	if _, err := RunMaintenance(tiny(), -0.1, 2); err == nil {
		t.Error("negative failFraction accepted")
	}
}

func TestGini(t *testing.T) {
	if g := gini([]float64{5, 5, 5, 5}); g > 1e-9 {
		t.Fatalf("uniform gini = %v, want 0", g)
	}
	// All mass on one peer of n → gini = (n-1)/n.
	if g := gini([]float64{0, 0, 0, 12}); math.Abs(g-0.75) > 1e-9 {
		t.Fatalf("concentrated gini = %v, want 0.75", g)
	}
	if g := gini(nil); g != 0 {
		t.Fatalf("empty gini = %v", g)
	}
	if g := gini([]float64{0, 0}); g != 0 {
		t.Fatalf("zero-mass gini = %v", g)
	}
	// More skew → larger gini.
	if gini([]float64{1, 1, 1, 9}) <= gini([]float64{2, 2, 3, 5}) {
		t.Fatal("gini not monotone in skew")
	}
}

func TestRunLoadBalance(t *testing.T) {
	res, err := RunLoadBalance(tiny())
	if err != nil {
		t.Fatalf("RunLoadBalance: %v", err)
	}
	if res.PostingsMax <= 0 || res.PostingsMean <= 0 {
		t.Fatalf("degenerate storage stats: %+v", res)
	}
	if res.PostingsGini < 0 || res.PostingsGini > 1 {
		t.Fatalf("gini out of range: %v", res.PostingsGini)
	}
	if res.TrafficMax <= 0 {
		t.Fatal("no query traffic recorded")
	}
	// The advisory must not make the worst-loaded peer worse.
	if res.WithAdvisory.PostingsMax > res.PostingsMax {
		t.Errorf("advisory increased max load: %d -> %d",
			res.PostingsMax, res.WithAdvisory.PostingsMax)
	}
	if rows := res.Report().Rows; rows[2][5] != res.WithAdvisory.HotThreshold {
		t.Fatalf("advisory row reports hot_df %v, want %d", rows[2][5], res.WithAdvisory.HotThreshold)
	}
}

func TestSetupWithExternalCollection(t *testing.T) {
	// Build a collection, serialize it, reload it, and run Setup against it
	// with SkipQueryGen — the cmd/corpusgen → spritebench -collection path.
	col, err := corpus.Synthesize(corpus.SynthConfig{
		NumDocs: 150, NumTopics: 3, NumQueries: 9, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := corpus.WriteCollection(&buf, col, corpus.SynthConfig{}, false); err != nil {
		t.Fatal(err)
	}
	loaded, err := corpus.ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := tiny()
	cfg.Collection = loaded
	cfg.SkipQueryGen = true
	env, err := Setup(cfg)
	if err != nil {
		t.Fatalf("Setup with external collection: %v", err)
	}
	if env.Col != loaded {
		t.Fatal("Setup synthesized instead of using the provided collection")
	}
	if len(env.Gen.Queries) != len(loaded.Queries) {
		t.Fatalf("SkipQueryGen ignored: %d queries vs %d", len(env.Gen.Queries), len(loaded.Queries))
	}
	for _, q := range env.Gen.Queries {
		if env.Gen.Origin[q.ID] != q.ID {
			t.Fatalf("external query %s has synthetic origin %s", q.ID, env.Gen.Origin[q.ID])
		}
	}
	// And the whole experiment must run on it.
	dep, err := env.NewDeployment(cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.InsertQueries(env.Train); err != nil {
		t.Fatal(err)
	}
	if err := dep.ShareAll(); err != nil {
		t.Fatal(err)
	}
	m := Measure(dep.SpriteSearcher(), env.Test, 10)
	if m.Precision <= 0 {
		t.Fatalf("no retrieval quality on external collection: %+v", m)
	}
}

// TestCSVRendering pins the one-report contract: for every experiment result,
// the aligned text, the CSV and the JSON rendering carry the same columns and
// the same rows, and the numbers the tables used to print only in their
// footers and titles are columns.
func TestCSVRendering(t *testing.T) {
	m := make([]ir.Metrics, 2)
	one := []float64{0.5}
	agg := &Fig4aAggregate{Seeds: 3, Ks: []int{5},
		SpriteMean: one, SpriteStd: one, ESearchMean: one, ESearchStd: one,
		SpriteRecMean: one, SpriteRecStd: one, ESearchRecMean: one, ESearchRecStd: one}
	reports := map[string]*Report{
		"config":           tiny().Report(),
		"fig4a":            (&Fig4aResult{Ks: []int{5, 10}, Sprite: m, ESearch: m}).Report(),
		"fig4a-replicated": agg.Report(),
		"fig4b":            (&Fig4bResult{Variant: WithZipf, Terms: []int{5, 10}, Sprite: m, ESearch: m}).Report(),
		"fig4c":            (&Fig4cResult{Iterations: []int{1, 2}, SwitchAt: 2, Sprite: m, ESearch: m}).Report(),
		"cost":             (&InsertCostResult{Docs: 10, SelectiveMsgs: 40, FullMsgs: 200, MsgRatio: 5}).Report(),
		"ablation":         (&AblationResult{Variants: []core.ScoreVariant{core.ScoreQScoreLogQF}, Metrics: m[:1]}).Report(),
		"churn":            (&ChurnResult{Replicas: 2, FailedFraction: 0.25, PostingsLost: 0.24}).Report(),
		"maintenance":      (&MaintenanceResult{Replicas: 2, SweepMoved: 10437, SweepMsgs: 155852}).Report(),
		"expansion":        (&ExpansionResult{Depths: []int{0, 2}, Metrics: m, ExtraMessages: []float64{0, 30}}).Report(),
		"load":             (&LoadResult{}).Report(),
		"learncost":        (&LearnCostResult{Iterations: []int{1}, MsgsPerDoc: []float64{7.5}, TermsPerDoc: []float64{10}, FullMsgsPerDoc: 141, AvgHops: 0.4}).Report(),
		"scale":            (&ScaleResult{Arms: make([]ScaleArm, 2)}).Report(),
		"similarity":       (&SimilarityResult{Tiers: make([]SimilarityTier, 1)}).Report(),
	}
	for name, r := range reports {
		var names []string
		for _, c := range r.Columns {
			names = append(names, c.Name)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}

		text := strings.Split(strings.TrimSuffix(r.Text(), "\n"), "\n")
		if text[0] != r.Title || strings.Join(strings.Fields(text[1]), ",") != strings.Join(names, ",") {
			t.Errorf("%s: text title/header %q, want %q / %v", name, text[:2], r.Title, names)
		}
		if got := len(text) - 2 - len(r.Notes); got != len(r.Rows) {
			t.Errorf("%s: text has %d rows, want %d", name, got, len(r.Rows))
		}

		recs, err := csv.NewReader(strings.NewReader(r.CSV())).ReadAll()
		if err != nil {
			t.Fatalf("%s: CSV does not parse: %v", name, err)
		}
		if !reflect.DeepEqual(recs[0], names) || len(recs)-1 != len(r.Rows) {
			t.Errorf("%s: CSV header %v with %d rows, want %v with %d", name, recs[0], len(recs)-1, names, len(r.Rows))
		}

		js, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: JSON: %v", name, err)
		}
		var doc struct {
			Columns []string
			Rows    [][]any
		}
		if err := json.Unmarshal(js, &doc); err != nil {
			t.Fatalf("%s: JSON does not parse: %v", name, err)
		}
		if !reflect.DeepEqual(doc.Columns, names) || len(doc.Rows) != len(r.Rows) {
			t.Errorf("%s: JSON columns %v with %d rows, want %v with %d", name, doc.Columns, len(doc.Rows), names, len(r.Rows))
		}
		for i, row := range doc.Rows {
			for j, v := range row {
				if _, isNum := v.(float64); isNum == (reflect.TypeOf(r.Rows[i][j]).Kind() == reflect.String) {
					t.Errorf("%s: JSON cell %s of row %d is %T for a %T", name, names[j], i, v, r.Rows[i][j])
				}
			}
		}
	}

	// Values only the old tables printed are columns now.
	for name, want := range map[string][]string{
		"cost":        {"msg_ratio", "docs"},
		"maintenance": {"moved", "msgs", "faulty"},
		"load":        {"hot_df", "peers"},
		"churn":       {"postings_lost", "faulty", "retries", "moved", "repair_msgs"},
		"learncost":   {"full_msgs_per_doc", "avg_hops"},
	} {
		for _, col := range want {
			if !strings.Contains(reports[name].CSV(), col) {
				t.Errorf("%s: CSV has no %s column", name, col)
			}
		}
	}
	if csv := reports["maintenance"].CSV(); !strings.Contains(csv, "after_sweep,0.0000,0.0000,10437,155852,") {
		t.Errorf("maintenance CSV lost the sweep's cost: %q", csv)
	}
	if csv := reports["fig4c"].CSV(); !strings.Contains(csv, "\n2,1,") {
		t.Errorf("fig4c switch iteration not marked: %q", csv)
	}
}

func TestMeanStd(t *testing.T) {
	m, sd := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-12 || math.Abs(sd-2) > 1e-12 {
		t.Fatalf("meanStd = %v, %v; want 5, 2", m, sd)
	}
	m, sd = meanStd([]float64{3})
	if m != 3 || sd != 0 {
		t.Fatalf("single sample: %v, %v", m, sd)
	}
	if m, sd := meanStd(nil); m != 0 || sd != 0 {
		t.Fatalf("empty: %v, %v", m, sd)
	}
}

func TestRunFig4aReplicated(t *testing.T) {
	cfg := tiny()
	agg, err := RunFig4aReplicated(cfg, 3)
	if err != nil {
		t.Fatalf("RunFig4aReplicated: %v", err)
	}
	if agg.Seeds != 3 || len(agg.Ks) != 6 {
		t.Fatalf("shape: %+v", agg)
	}
	// Means must be plausible ratios; stds must be non-negative and small
	// relative to the means (the replications share the generator family).
	for i := range agg.Ks {
		if agg.SpriteMean[i] <= 0 || agg.SpriteMean[i] > 1.2 {
			t.Fatalf("sprite mean out of range at K=%d: %v", agg.Ks[i], agg.SpriteMean[i])
		}
		if agg.SpriteStd[i] < 0 || agg.SpriteStd[i] > 0.5 {
			t.Fatalf("sprite std implausible at K=%d: %v", agg.Ks[i], agg.SpriteStd[i])
		}
	}
	// Seeds must actually differ: at least one K should show nonzero spread.
	spread := 0.0
	for _, sd := range agg.SpriteStd {
		spread += sd
	}
	if spread == 0 {
		t.Fatal("replications produced identical results — seeds not varied")
	}
	if got := len(agg.Report().Rows); got != len(agg.Ks) {
		t.Fatalf("report has %d rows, want %d", got, len(agg.Ks))
	}
	if _, err := RunFig4aReplicated(cfg, 0); err == nil {
		t.Fatal("zero seeds accepted")
	}
}

func TestRunLearnCost(t *testing.T) {
	res, err := RunLearnCost(tiny())
	if err != nil {
		t.Fatalf("RunLearnCost: %v", err)
	}
	if len(res.Iterations) != 5 {
		t.Fatalf("iterations = %v", res.Iterations)
	}
	// An unshare sends each remote holder of the document one message.
	if last := res.TermsPerDoc[len(res.TermsPerDoc)-1]; res.UnshareMsgsPerDoc <= 0 || res.UnshareMsgsPerDoc > last {
		t.Fatalf("unshare cost %.2f msgs/doc, want some, at most one per indexed term (%.2f)", res.UnshareMsgsPerDoc, last)
	}
	for i := range res.Iterations {
		if res.MsgsPerDoc[i] <= 0 {
			t.Fatalf("iteration %d reported no traffic", res.Iterations[i])
		}
	}
	// Index grows monotonically toward the cap.
	for i := 1; i < len(res.TermsPerDoc); i++ {
		if res.TermsPerDoc[i]+1e-9 < res.TermsPerDoc[i-1] {
			t.Fatalf("terms/doc shrank: %v", res.TermsPerDoc)
		}
	}
	// Full-term maintenance must dwarf SPRITE's worst iteration.
	worst := 0.0
	for _, m := range res.MsgsPerDoc {
		if m > worst {
			worst = m
		}
	}
	if res.FullMsgsPerDoc < 2*worst {
		t.Fatalf("full maintenance (%.1f) not clearly above SPRITE (%.1f)",
			res.FullMsgsPerDoc, worst)
	}
	if got := len(res.Report().Rows); got != len(res.Iterations) {
		t.Fatalf("report has %d rows, want %d", got, len(res.Iterations))
	}
}

// TestRunCacheRepeat checks the query-path caches under the paper's skewed,
// repetitive workload: two identically trained deployments, caches off and
// on, replay the same Zipf stream of test queries. Caching must save
// messages, bytes and postings fetches, and must not move retrieval quality
// at all (the no-stale guarantee).
func TestRunCacheRepeat(t *testing.T) {
	env, err := Setup(tiny())
	if err != nil {
		t.Fatal(err)
	}
	ranks := zipfRanks(len(env.Test), 120, 0.5, env.Cfg.Seed+13)
	type replay struct {
		msgs, bytes, fetches int64
		dep                  *Deployment
	}
	run := func(cache core.CacheConfig) replay {
		coreCfg := env.Cfg.Core
		coreCfg.Cache = cache
		dep, err := env.NewDeployment(coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.InsertQueries(env.Train); err != nil {
			t.Fatal(err)
		}
		if err := dep.ShareAll(); err != nil {
			t.Fatal(err)
		}
		if err := dep.Learn(env.Cfg.LearningIterations); err != nil {
			t.Fatal(err)
		}
		dep.Sim.ResetStats()
		for _, r := range ranks {
			q := env.Test[r]
			if _, err := dep.Net.ProbeCtx(context.Background(), dep.nextIssuer(), q.Terms, env.Cfg.TopK); err != nil && !errors.Is(err, core.ErrPartialResults) {
				t.Fatalf("replay %s: %v", q.ID, err)
			}
		}
		st := dep.Sim.Stats()
		return replay{st.Calls, st.Bytes, st.CallsByType["sprite.get_postings"], dep}
	}
	off := run(core.CacheConfig{})
	// ResultTTL is pinned far past the run so the measurement is a pure
	// function of the workload, not of wall-clock scheduling.
	on := run(core.CacheConfig{Enabled: true, ResultTTL: time.Hour})

	if off.msgs == 0 || off.bytes == 0 {
		t.Fatalf("cache-off replay produced no traffic: %+v", off)
	}
	if on.msgs >= off.msgs {
		t.Fatalf("caching did not reduce messages: on %d >= off %d", on.msgs, off.msgs)
	}
	if on.bytes >= off.bytes {
		t.Fatalf("caching did not reduce bytes: on %d >= off %d", on.bytes, off.bytes)
	}
	if on.fetches >= off.fetches {
		t.Fatalf("postings fetches not reduced: on %d >= off %d", on.fetches, off.fetches)
	}
	if hr := on.dep.Net.PostingsCacheStats().HitRate(); hr <= 0 {
		t.Fatalf("postings hit rate = %v, want > 0", hr)
	}
	offQ := Measure(off.dep.SpriteSearcher(), env.Test, env.Cfg.TopK)
	onQ := Measure(on.dep.SpriteSearcher(), env.Test, env.Cfg.TopK)
	if offQ != onQ {
		t.Fatalf("quality moved with caching: off %+v, on %+v", offQ, onQ)
	}
}

func TestZipfRanksMatchesInsertStream(t *testing.T) {
	// The extracted sampler must preserve the historical draw sequence:
	// same seed, same ranks, every time.
	a := zipfRanks(50, 200, 0.5, 42)
	b := zipfRanks(50, 200, 0.5, 42)
	if len(a) != 200 {
		t.Fatalf("want 200 samples, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampler not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Lower ranks must dominate under a positive slope.
	low, high := 0, 0
	for _, r := range a {
		if r < 25 {
			low++
		} else {
			high++
		}
	}
	if low <= high {
		t.Fatalf("Zipf skew missing: %d low vs %d high", low, high)
	}
}
