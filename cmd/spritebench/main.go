// Command spritebench regenerates every figure of the SPRITE paper's
// evaluation (§6.3) plus the supplementary experiments indexed in DESIGN.md
// that nothing else in the repository measures, printing the same
// rows/series the paper reports.
//
// Usage:
//
//	spritebench [flags] <experiment>...
//
// Experiments: config fig4a fig4a-replicated fig4b fig4c cost ablation churn
// expansion maintenance load learncost scale similarity all. "all" runs every
// experiment but fig4a-replicated, scale (the virtual-time ring-size sweep)
// and similarity (the sketch-retrieval sweep).
//
// Each experiment prints one report per result: an aligned text table by
// default, CSV with -csv, or one JSON document with -json. Standard output is
// a function of the flags alone; how long each experiment took goes to
// standard error.
//
// Flags scale the setup; the defaults are the paper's configuration at the
// laptop scale documented in DESIGN.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/eval"
	"github.com/spritedht/sprite/internal/querygen"
	"github.com/spritedht/sprite/internal/telemetry"
)

const experiments = "config fig4a fig4a-replicated fig4b fig4c cost ablation churn expansion maintenance load learncost scale similarity all"

func main() {
	var (
		docs      = flag.Int("docs", 2000, "corpus size (documents)")
		topics    = flag.Int("topics", 12, "latent topics in the synthetic corpus")
		queries   = flag.Int("queries", 63, "original judged queries (paper: 63)")
		perOrig   = flag.Int("per-original", 9, "derived queries per original (paper: 9)")
		overlap   = flag.Float64("overlap", 0.7, "query-generator term overlap O (paper: 0.7)")
		peers     = flag.Int("peers", 64, "DHT peers")
		topK      = flag.Int("topk", 20, "answers retrieved per query (paper: 20)")
		iters     = flag.Int("iterations", 3, "learning iterations for fig4a (paper: 3)")
		seed      = flag.Int64("seed", 17, "master random seed")
		failFrac  = flag.Float64("fail", 0.25, "fraction of peers failed in the churn and maintenance experiments")
		replicas  = flag.Int("replicas", 2, "successor replicas in the churn and maintenance experiments")
		churnRot  = flag.Int("churn-interval", 0, "queries between fault rotations in the churn experiment's transient arms (0 = quarter of the test stream)")
		colPath   = flag.String("collection", "", "run against an external judged collection (JSON, as emitted by corpusgen) instead of synthesizing one")
		asCSV     = flag.Bool("csv", false, "emit CSV instead of tables")
		asJSON    = flag.Bool("json", false, "emit one JSON document with all experiment results")
		withTel   = flag.Bool("telemetry", false, "record metrics/traces during experiments; report to stderr")
		repeats   = flag.Int("repeats", 5, "independent replications for fig4a-replicated")
		parallel  = flag.Int("parallel", 0, "query fan-out parallelism for all experiments (0 = GOMAXPROCS, 1 = sequential)")
		linkDelay = flag.Duration("link-delay", time.Millisecond, "constant link delay slept on the virtual clock in the scale experiment")
		scaleRing = flag.String("scale-rings", "", "comma-separated ring sizes for the scale experiment (default 10000,25000,50000,100000)")
		scaleVol  = flag.Int("scale-queries", 0, "measured Zipf queries per ring in the scale experiment (default 250000)")
		scaleZip  = flag.Float64("scale-slope", 0.5, "Zipf slope of the scale experiment's query stream")
		simTiers  = flag.String("similarity-tiers", "", "comma-separated corpus sizes for the similarity experiment (default 2000,10000)")
		simPeers  = flag.Int("similarity-peers", 0, "DHT peers in the similarity experiment (default 512)")
		simVol    = flag.Int("similarity-queries", 0, "sampled query documents per tier in the similarity experiment (default 100)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: spritebench [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n\nflags:\n", experiments)
		flag.PrintDefaults()
	}
	flag.Parse()

	var reg *telemetry.Registry
	if *withTel {
		reg = telemetry.NewRegistry()
	}
	cfg := eval.Config{
		Telemetry: reg,
		Corpus: corpus.SynthConfig{
			NumDocs:    *docs,
			NumTopics:  *topics,
			NumQueries: *queries,
			Seed:       *seed,
		},
		SkipQueryGen: *colPath != "",
		QueryGen: querygen.Config{
			PerOriginal: *perOrig,
			Overlap:     *overlap,
			Seed:        *seed + 6,
		},
		Peers:              *peers,
		Core:               core.Config{Parallelism: *parallel},
		TopK:               *topK,
		LearningIterations: *iters,
		Seed:               *seed + 14,
		ChurnRotateEvery:   *churnRot,
	}

	if *colPath != "" {
		f, err := os.Open(*colPath)
		if err != nil {
			fail(err)
		}
		col, err := corpus.ReadCollection(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		cfg.Collection = col
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, exp := range args {
		if exp == "all" {
			args = []string{"config", "fig4a", "fig4b", "fig4c", "cost", "ablation", "churn", "expansion", "maintenance", "load", "learncost"}
			break
		}
	}

	opts := runOpts{
		failFrac:   *failFrac,
		replicas:   *replicas,
		repeats:    *repeats,
		linkDelay:  *linkDelay,
		scaleRings: parseSizes("scale-rings", *scaleRing),
		scaleVol:   *scaleVol,
		scaleSlope: *scaleZip,
		simTiers:   parseSizes("similarity-tiers", *simTiers),
		simPeers:   *simPeers,
		simVol:     *simVol,
	}
	var all []jsonReport
	for i, exp := range args {
		start := time.Now()
		reports, err := run(exp, cfg, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spritebench: %s: %v\n", exp, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", exp, time.Since(start).Round(time.Millisecond))
		for j, r := range reports {
			switch {
			case *asJSON:
				all = append(all, jsonReport{exp, r})
			case *asCSV:
				fmt.Print(r.CSV())
			default:
				if i+j > 0 {
					fmt.Println()
				}
				fmt.Print(r.Text())
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fail(err)
		}
	}
	if reg != nil {
		reg.Snapshot().WriteText(os.Stderr)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "spritebench:", err)
	os.Exit(1)
}

// jsonReport is one report of the -json document, filed under the
// experiment that produced it.
type jsonReport struct {
	Experiment string       `json:"experiment"`
	Report     *eval.Report `json:"report"`
}

// runOpts carries the per-experiment flag values into run.
type runOpts struct {
	failFrac   float64
	replicas   int
	repeats    int
	linkDelay  time.Duration
	scaleRings []int
	scaleVol   int
	scaleSlope float64
	simTiers   []int
	simPeers   int
	simVol     int
}

// parseSizes decodes the comma-separated list of positive sizes given to
// -name; empty means the experiment's defaults.
func parseSizes(name, s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "spritebench: bad -%s entry %q\n", name, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// one wraps a single experiment result as that experiment's report.
func one[R interface{ Report() *eval.Report }](res R, err error) ([]*eval.Report, error) {
	if err != nil {
		return nil, err
	}
	return []*eval.Report{res.Report()}, nil
}

func run(exp string, cfg eval.Config, o runOpts) ([]*eval.Report, error) {
	switch exp {
	case "config":
		return []*eval.Report{cfg.Report()}, nil
	case "fig4a":
		return one(eval.RunFig4a(cfg))
	case "fig4a-replicated":
		return one(eval.RunFig4aReplicated(cfg, o.repeats))
	case "fig4b":
		var out []*eval.Report
		for _, v := range []eval.Fig4bVariant{eval.WithoutRepeats, eval.WithZipf} {
			res, err := eval.RunFig4b(cfg, v)
			if err != nil {
				return nil, err
			}
			out = append(out, res.Report())
		}
		return out, nil
	case "fig4c":
		return one(eval.RunFig4c(cfg))
	case "cost":
		return one(eval.RunInsertCost(cfg))
	case "ablation":
		return one(eval.RunScoreAblation(cfg))
	case "churn":
		return one(eval.RunChurn(cfg, o.failFrac, o.replicas))
	case "expansion":
		return one(eval.RunExpansion(cfg))
	case "maintenance":
		return one(eval.RunMaintenance(cfg, o.failFrac, o.replicas))
	case "load":
		return one(eval.RunLoadBalance(cfg))
	case "learncost":
		return one(eval.RunLearnCost(cfg))
	case "scale":
		return one(eval.RunScale(cfg, o.scaleRings, o.scaleVol, o.scaleSlope, o.linkDelay))
	case "similarity":
		return one(eval.RunSimilarity(cfg, o.simTiers, o.simPeers, o.simVol))
	}
	return nil, fmt.Errorf("unknown experiment %q (experiments: %s)", exp, experiments)
}
