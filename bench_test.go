package sprite

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§6.3) plus the supplementary experiments of DESIGN.md and
// micro-benchmarks of the hot paths. The figure benches print the paper's
// rows/series once (first iteration) and report the headline number as a
// custom metric, so `go test -bench=. -benchmem` regenerates the entire
// evaluation.
//
// The figure benches run the full pipeline — corpus synthesis, query
// generation, DHT construction, training, learning, measurement — per
// iteration, at a bench-sized scale (quarter of the default corpus) so the
// suite completes in minutes. Use cmd/spritebench for the full-scale runs.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/eval"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/querygen"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/text"
)

// benchConfig is the bench-sized experimental setup.
func benchConfig() eval.Config {
	cfg := eval.DefaultConfig()
	cfg.Corpus = corpus.SynthConfig{NumDocs: 500, NumTopics: 6, NumQueries: 24, Seed: 17}
	cfg.QueryGen = querygen.Config{Seed: 23}
	cfg.Peers = 32
	return cfg
}

var printOnce sync.Map

// printTable emits a figure's table exactly once per benchmark name.
func printTable(name, table string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", table)
	}
}

// BenchmarkFig4a regenerates Figure 4(a): precision/recall ratio vs number
// of answers.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig4a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig4a", res.Table())
		b.ReportMetric(res.Sprite[3].Precision, "sprite-P@20-ratio")
		b.ReportMetric(res.ESearch[3].Precision, "esearch-P@20-ratio")
	}
}

// BenchmarkFig4bWithoutRepeats regenerates Figure 4(b), "w/o-r" workload.
func BenchmarkFig4bWithoutRepeats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig4b(benchConfig(), eval.WithoutRepeats)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig4b-wor", res.Table())
		b.ReportMetric(res.Sprite[3].Precision, "sprite-P@20terms-ratio")
	}
}

// BenchmarkFig4bZipf regenerates Figure 4(b), "w-zipf" workload (slope 0.5).
func BenchmarkFig4bZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig4b(benchConfig(), eval.WithZipf)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig4b-zipf", res.Table())
		b.ReportMetric(res.Sprite[3].Precision, "sprite-P@20terms-ratio")
	}
}

// BenchmarkFig4c regenerates Figure 4(c): robustness to query-pattern change.
func BenchmarkFig4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig4c(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig4c", res.Table())
		b.ReportMetric(res.Sprite[5].Precision, "sprite-P-at-switch")
		b.ReportMetric(res.Sprite[9].Precision, "sprite-P-final")
	}
}

// BenchmarkChordLookup measures a single iterative DHT lookup on a 256-node
// ring (the chord-hops experiment's microscopic counterpart).
func BenchmarkChordLookup(b *testing.B) {
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("b", 256); err != nil {
		b.Fatal(err)
	}
	ring.Build()
	nodes := ring.Nodes()
	keys := make([]chordid.ID, 1024)
	for i := range keys {
		keys[i] = chordid.HashKey(fmt.Sprintf("bench-key-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nodes[i%len(nodes)].Lookup(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChordLookupTelemetry is BenchmarkChordLookup with a live registry
// installed at every layer, measuring the instrumentation overhead on the
// hottest path. Compare with BenchmarkChordLookup (telemetry disabled) to
// verify the disabled cost stays within noise and the enabled cost is small.
func BenchmarkChordLookupTelemetry(b *testing.B) {
	reg := telemetry.NewRegistry()
	net := simnet.New(1, simnet.WithTelemetry(reg))
	ring := chord.NewRing(net, chord.Config{Telemetry: reg})
	if _, err := ring.AddNodes("b", 256); err != nil {
		b.Fatal(err)
	}
	ring.Build()
	nodes := ring.Nodes()
	keys := make([]chordid.ID, 1024)
	for i := range keys {
		keys[i] = chordid.HashKey(fmt.Sprintf("bench-key-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nodes[i%len(nodes)].Lookup(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChordHops runs the hop-count experiment table.
func BenchmarkChordHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunChordHops([]int{16, 64, 256, 1024}, 200, 5)
		if err != nil {
			b.Fatal(err)
		}
		printTable("chord-hops", res.Table())
		b.ReportMetric(res.AvgHops[len(res.AvgHops)-1], "avg-hops-1024")
	}
}

// BenchmarkInsertCost runs the selective-vs-full indexing cost experiment.
func BenchmarkInsertCost(b *testing.B) {
	cfg := benchConfig()
	cfg.Corpus.NumDocs = 200
	for i := 0; i < b.N; i++ {
		res, err := eval.RunInsertCost(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("insert-cost", res.Table())
		b.ReportMetric(res.MsgRatio, "full/selective-msgs")
	}
}

// BenchmarkScoreAblation runs the §5.3 score-function ablation.
func BenchmarkScoreAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunScoreAblation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation", res.Table())
		b.ReportMetric(res.Metrics[0].Precision, "paper-variant-P-ratio")
	}
}

// BenchmarkChurn runs the §7 failure/replication experiment.
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunChurn(benchConfig(), 0.25, 2)
		if err != nil {
			b.Fatal(err)
		}
		printTable("churn", res.Table())
		b.ReportMetric(res.NoReplication.Precision, "P-ratio-no-replication")
		b.ReportMetric(res.Replicated.Precision, "P-ratio-replicated")
	}
}

// BenchmarkExpansion runs the §7 query-expansion quality/cost experiment.
func BenchmarkExpansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunExpansion(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable("expansion", res.Table())
		b.ReportMetric(res.Metrics[0].Precision, "P-ratio-plain")
		b.ReportMetric(res.Metrics[len(res.Metrics)-1].Precision, "P-ratio-expanded")
	}
}

// BenchmarkMaintenance runs the churn-recovery comparison (degraded vs owner
// refresh vs successor replication).
func BenchmarkMaintenance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunMaintenance(benchConfig(), 0.25, 2)
		if err != nil {
			b.Fatal(err)
		}
		printTable("maintenance", res.Table())
		b.ReportMetric(res.Degraded.Precision, "P-degraded")
		b.ReportMetric(res.AfterRefresh.Precision, "P-after-refresh")
	}
}

// BenchmarkLoadBalance runs the §7(b) load-distribution measurement.
func BenchmarkLoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunLoadBalance(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable("load", res.Table())
		b.ReportMetric(res.PostingsGini, "postings-gini")
		b.ReportMetric(res.TrafficGini, "traffic-gini")
	}
}

// BenchmarkLearnCost runs the per-iteration maintenance-traffic measurement.
func BenchmarkLearnCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunLearnCost(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable("learncost", res.Table())
		b.ReportMetric(res.MsgsPerDoc[len(res.MsgsPerDoc)-1], "msgs/doc/iter")
	}
}

// benchDeployment builds a trained deployment once for the micro-benches.
func benchDeployment(b *testing.B) (*eval.Env, *eval.Deployment) {
	b.Helper()
	cfg := benchConfig()
	env, err := eval.Setup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := env.NewDeployment(cfg.Core)
	if err != nil {
		b.Fatal(err)
	}
	if err := dep.InsertQueries(env.Train); err != nil {
		b.Fatal(err)
	}
	if err := dep.ShareAll(); err != nil {
		b.Fatal(err)
	}
	return env, dep
}

// BenchmarkSearch measures one distributed keyword query end-to-end
// (lookups, postings retrieval, consolidation, ranking).
func BenchmarkSearch(b *testing.B) {
	env, dep := benchDeployment(b)
	if err := dep.Learn(3); err != nil {
		b.Fatal(err)
	}
	s := dep.SpriteSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.Test[i%len(env.Test)]
		s(q.Terms, 20)
	}
}

// BenchmarkLearnDocument measures one learning iteration for one document
// (polls, Algorithm 1 fold, rank-list selection, publications).
func BenchmarkLearnDocument(b *testing.B) {
	_, dep := benchDeployment(b)
	docs := dep.Net.Documents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Net.LearnDocCtx(context.Background(), docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShareDocument measures publishing one document's initial terms
// through the DHT.
func BenchmarkShareDocument(b *testing.B) {
	cfg := benchConfig()
	env, err := eval.Setup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := env.NewDeployment(cfg.Core)
	if err != nil {
		b.Fatal(err)
	}
	docs := env.Col.Corpus.Docs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := docs[i%len(docs)]
		clone := corpus.NewDocument(index.DocID(fmt.Sprintf("%s-clone%d", src.ID, i)), src.TF)
		owner := dep.Net.Peers()[i%cfg.Peers].Addr()
		if err := dep.Net.Share(owner, clone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPorterStem measures the stemmer on a representative vocabulary.
func BenchmarkPorterStem(b *testing.B) {
	words := []string{
		"relational", "conditional", "generalization", "oscillators",
		"characterization", "retrieval", "indexing", "effectiveness",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text.Stem(words[i%len(words)])
	}
}

// BenchmarkAnalyzerTerms measures the full text pipeline on a paragraph.
func BenchmarkAnalyzerTerms(b *testing.B) {
	const para = `SPRITE selects a small set of representative index terms
	per document and progressively tunes the selection by learning from past
	keyword queries in a distributed hash table network built over Chord.`
	var a text.Analyzer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Terms(para)
	}
}
