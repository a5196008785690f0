// Command spritebench regenerates every figure of the SPRITE paper's
// evaluation (§6.3) plus the supplementary systems-level experiments indexed
// in DESIGN.md, printing the same rows/series the paper reports.
//
// Usage:
//
//	spritebench [flags] <experiment>...
//
// Experiments: fig4a fig4b fig4c chord cost ablation churn cache parallel
// scale postings similarity chaos config all ("chaos" is the correctness
// smoke gate, "scale" the virtual-time ring-size sweep, "postings" the
// compressed-storage benchmark, and "similarity" the sketch-retrieval
// benchmark, not figures; all four are excluded from "all"). -virtual-time moves the parallel and chaos
// experiments onto the deterministic event clock.
//
// Flags scale the setup; the defaults are the paper's configuration at the
// laptop scale documented in DESIGN.md.
package main

import (
	"encoding/csv"
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
		failFrac  = flag.Float64("fail", 0.25, "fraction of peers failed in the churn experiment")
		replicas  = flag.Int("replicas", 2, "successor replicas in the churn experiment")
		churnRot  = flag.Int("churn-interval", 0, "queries between fault rotations in the churn experiment's transient arms (0 = quarter of the test stream)")
		colPath   = flag.String("collection", "", "run against an external judged collection (JSON, as emitted by corpusgen) instead of synthesizing one")
		asCSV     = flag.Bool("csv", false, "emit CSV instead of tables")
		asJSON    = flag.Bool("json", false, "emit one JSON document with all experiment results")
		withTel   = flag.Bool("telemetry", false, "record metrics/traces during experiments; report to stderr")
		repeats   = flag.Int("repeats", 5, "independent replications for fig4a-replicated")
		cacheVol  = flag.Int("cache-volume", 0, "replayed queries in the cache experiment (0 = 4x the test set)")
		cacheZip  = flag.Float64("cache-slope", 0.5, "Zipf slope of the cache experiment's repeated-query stream")
		parallel  = flag.Int("parallel", 0, "query fan-out parallelism for all experiments (0 = GOMAXPROCS, 1 = sequential)")
		linkDelay = flag.Duration("link-delay", time.Millisecond, "constant link delay slept in the parallel experiment")
		virtual   = flag.Bool("virtual-time", false, "run the parallel and chaos experiments on the deterministic event clock (internal/vtime) instead of the wall clock")
		scaleRing = flag.String("scale-rings", "", "comma-separated ring sizes for the scale experiment (default 10000,25000,50000,100000)")
		scaleVol  = flag.Int("scale-queries", 0, "measured Zipf queries per ring in the scale experiment (default 250000)")
		scaleZip  = flag.Float64("scale-slope", 0.5, "Zipf slope of the scale experiment's query stream")
		postTiers = flag.String("postings-tiers", "", "comma-separated corpus sizes for the postings experiment (default 10000,100000,1000000)")
		postVol   = flag.Int("postings-queries", 0, "measured queries per tier in the postings experiment (default 2000)")
		postPlain = flag.Int("postings-plain-max", 0, "largest tier the uncompressed arm is built at (default 100000)")
		simTiers  = flag.String("similarity-tiers", "", "comma-separated corpus sizes for the similarity experiment (default 2000,10000)")
		simPeers  = flag.Int("similarity-peers", 0, "DHT peers in the similarity experiment (default 512)")
		simVol    = flag.Int("similarity-queries", 0, "sampled query documents per tier in the similarity experiment (default 100)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: spritebench [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: fig4a fig4a-replicated fig4b fig4c chord cost ablation churn expansion maintenance load learncost cache parallel scale postings similarity chaos config all\n\nflags:\n")
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
		VirtualTime:        *virtual,
	}

	if *colPath != "" {
		f, err := os.Open(*colPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spritebench:", err)
			os.Exit(1)
		}
		col, err := corpus.ReadCollection(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "spritebench:", err)
			os.Exit(1)
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
			args = []string{"config", "fig4a", "fig4b", "fig4c", "chord", "cost", "ablation", "churn", "expansion", "maintenance", "load", "learncost", "cache", "parallel"}
			break
		}
	}

	timeMode := "wall"
	if *virtual {
		timeMode = "virtual"
	}
	opts := runOpts{
		failFrac:   *failFrac,
		replicas:   *replicas,
		repeats:    *repeats,
		cacheVol:   *cacheVol,
		cacheSlope: *cacheZip,
		linkDelay:  *linkDelay,
		scaleRings: parseRings(*scaleRing),
		scaleVol:   *scaleVol,
		scaleSlope: *scaleZip,
		postTiers:  parseRings(*postTiers),
		postVol:    *postVol,
		postPlain:  *postPlain,
		simTiers:   parseRings(*simTiers),
		simPeers:   *simPeers,
		simVol:     *simVol,
	}
	out := &output{asCSV: *asCSV, asJSON: *asJSON, timeMode: timeMode}
	for _, exp := range args {
		start := time.Now()
		if err := run(exp, cfg, opts, out); err != nil {
			fmt.Fprintf(os.Stderr, "spritebench: %s: %v\n", exp, err)
			os.Exit(1)
		}
		out.finishExperiment(exp, time.Since(start))
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out.results); err != nil {
			fmt.Fprintln(os.Stderr, "spritebench:", err)
			os.Exit(1)
		}
	}
	if reg != nil {
		reg.Snapshot().WriteText(os.Stderr)
	}
}

// renderable is any experiment result printable as a table or CSV.
type renderable interface {
	Table() string
	CSV() string
}

// jsonResult is one experiment's machine-readable output: the CSV rows
// decoded into header-keyed maps, plus wall-clock time and which clock the
// experiment's latencies were measured on ("wall" or "virtual").
type jsonResult struct {
	Experiment string              `json:"experiment"`
	TimeMode   string              `json:"time_mode"`
	ElapsedMS  int64               `json:"elapsed_ms"`
	Rows       []map[string]string `json:"rows,omitempty"`
}

// output routes experiment results to the selected format: tables (default),
// raw CSV, or an accumulated JSON document emitted after the last experiment.
type output struct {
	asCSV    bool
	asJSON   bool
	timeMode string
	pending  []map[string]string
	results  []jsonResult
}

func (o *output) emit(r renderable) {
	switch {
	case o.asJSON:
		o.pending = append(o.pending, csvRows(r.CSV())...)
	case o.asCSV:
		fmt.Print(r.CSV())
	default:
		fmt.Print(r.Table())
	}
}

// finishExperiment closes out one experiment: in JSON mode it files the
// accumulated rows under the experiment name; in table mode it prints the
// timing footer.
func (o *output) finishExperiment(exp string, elapsed time.Duration) {
	if o.asJSON {
		mode := o.timeMode
		if exp == "scale" {
			mode = "virtual" // the scale sweep always runs on the event clock
		}
		o.results = append(o.results, jsonResult{
			Experiment: exp,
			TimeMode:   mode,
			ElapsedMS:  elapsed.Milliseconds(),
			Rows:       o.pending,
		})
		o.pending = nil
		return
	}
	if !o.asCSV {
		fmt.Printf("[%s completed in %v]\n\n", exp, elapsed.Round(time.Millisecond))
	}
}

// csvRows decodes a CSV document into one map per record keyed by the header
// row. Experiments emit regular CSV, so decode errors reduce to "no rows".
func csvRows(doc string) []map[string]string {
	recs, err := csv.NewReader(strings.NewReader(doc)).ReadAll()
	if err != nil || len(recs) < 2 {
		return nil
	}
	header := recs[0]
	rows := make([]map[string]string, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := make(map[string]string, len(header))
		for i, v := range rec {
			if i < len(header) {
				row[header[i]] = v
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// runOpts carries the per-experiment flag values into run.
type runOpts struct {
	failFrac   float64
	replicas   int
	repeats    int
	cacheVol   int
	cacheSlope float64
	linkDelay  time.Duration
	scaleRings []int
	scaleVol   int
	scaleSlope float64
	postTiers  []int
	postVol    int
	postPlain  int
	simTiers   []int
	simPeers   int
	simVol     int
}

// parseRings decodes a comma-separated ring-size list; empty means defaults.
func parseRings(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "spritebench: bad -scale-rings entry %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func run(exp string, cfg eval.Config, o runOpts, out *output) error {
	switch exp {
	case "config":
		if !out.asJSON {
			printConfig(cfg)
		}
		return nil
	case "fig4a":
		res, err := eval.RunFig4a(cfg)
		if err != nil {
			return err
		}
		out.emit(res)
	case "fig4a-replicated":
		res, err := eval.RunFig4aReplicated(cfg, o.repeats)
		if err != nil {
			return err
		}
		out.emit(res)
	case "fig4b":
		for _, v := range []eval.Fig4bVariant{eval.WithoutRepeats, eval.WithZipf} {
			res, err := eval.RunFig4b(cfg, v)
			if err != nil {
				return err
			}
			out.emit(res)
			if !out.asCSV && !out.asJSON {
				fmt.Println()
			}
		}
	case "fig4c":
		res, err := eval.RunFig4c(cfg)
		if err != nil {
			return err
		}
		out.emit(res)
	case "chord":
		res, err := eval.RunChordHops([]int{16, 64, 256, 1024}, 200, cfg.Seed)
		if err != nil {
			return err
		}
		out.emit(res)
	case "cost":
		res, err := eval.RunInsertCost(cfg)
		if err != nil {
			return err
		}
		out.emit(res)
	case "ablation":
		res, err := eval.RunScoreAblation(cfg)
		if err != nil {
			return err
		}
		out.emit(res)
	case "churn":
		res, err := eval.RunChurn(cfg, o.failFrac, o.replicas)
		if err != nil {
			return err
		}
		out.emit(res)
	case "expansion":
		res, err := eval.RunExpansion(cfg)
		if err != nil {
			return err
		}
		out.emit(res)
	case "maintenance":
		res, err := eval.RunMaintenance(cfg, o.failFrac, o.replicas)
		if err != nil {
			return err
		}
		out.emit(res)
	case "load":
		res, err := eval.RunLoadBalance(cfg)
		if err != nil {
			return err
		}
		out.emit(res)
	case "learncost":
		res, err := eval.RunLearnCost(cfg)
		if err != nil {
			return err
		}
		out.emit(res)
	case "cache":
		res, err := eval.RunCacheRepeat(cfg, o.cacheVol, o.cacheSlope)
		if err != nil {
			return err
		}
		out.emit(res)
	case "parallel":
		res, err := eval.RunParallel(cfg, nil, o.linkDelay)
		if err != nil {
			return err
		}
		out.emit(res)
	case "scale":
		res, err := eval.RunScale(cfg, o.scaleRings, o.scaleVol, o.scaleSlope, o.linkDelay)
		if err != nil {
			return err
		}
		out.emit(res)
	case "postings":
		res, err := eval.RunPostings(o.postTiers, o.postVol, o.postPlain, cfg.Seed)
		if err != nil {
			return err
		}
		out.emit(res)
	case "similarity":
		res, err := eval.RunSimilarity(cfg, o.simTiers, o.simPeers, o.simVol)
		if err != nil {
			return err
		}
		out.emit(res)
	case "chaos":
		res, err := eval.RunChaos(nil, 0, cfg.Core.Parallelism, cfg.VirtualTime)
		if err != nil {
			return err
		}
		out.emit(res)
		if n := res.Failures(); n > 0 {
			return fmt.Errorf("%d/%d seeds violated an invariant", n, len(res.Seeds))
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func printConfig(cfg eval.Config) {
	cc := cfg.Corpus.FillDefaults()
	qc := cfg.QueryGen.FillDefaults()
	cr := cfg.Core.FillDefaults()
	fmt.Println("Experimental setup (cf. paper §6.2)")
	fmt.Printf("  corpus:    %d docs, %d topics, doc length %d-%d tokens\n",
		cc.NumDocs, cc.NumTopics, cc.DocLenMin, cc.DocLenMax)
	fmt.Printf("  queries:   %d originals x (1+%d) = %d total, overlap O=%.0f%%\n",
		cc.NumQueries, qc.PerOriginal, cc.NumQueries*(1+qc.PerOriginal), qc.Overlap*100)
	fmt.Printf("  network:   %d peers (Chord, MD5 128-bit IDs)\n", cfg.Peers)
	fmt.Printf("  sprite:    %d initial terms, %d per iteration, cap %d, history %d\n",
		cr.InitialTerms, cr.TermsPerIteration, cr.MaxIndexTerms, cr.HistoryCap)
	fmt.Printf("  retrieval: top-%d answers, %d learning iterations\n",
		cfg.TopK, cfg.LearningIterations)
}
