package eval

import (
	"fmt"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/ir"
)

// This file reproduces the three panels of the paper's Figure 4 (§6.3). All
// reported numbers are ratios to the centralized system, as in the paper.

// Fig4aResult is Figure 4(a): precision and recall versus the number of
// answers K.
type Fig4aResult struct {
	Ks      []int
	Sprite  []ir.Metrics // ratio to centralized, per K
	ESearch []ir.Metrics // ratio to centralized, per K
}

// RunFig4a executes the default experiment (§6.2: training queries inserted,
// documents shared with 5 initial terms, 3 learning iterations → 20 terms;
// eSearch at 20 terms) and sweeps the number of answers K ∈ {5..30}.
func RunFig4a(cfg Config) (*Fig4aResult, error) {
	cfg = cfg.fillDefaults()
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	dep, err := env.NewDeployment(cfg.Core)
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

	spriteTerms := cfg.Core.InitialTerms + cfg.LearningIterations*cfg.Core.TermsPerIteration
	if spriteTerms > cfg.Core.MaxIndexTerms {
		spriteTerms = cfg.Core.MaxIndexTerms
	}
	es, err := env.ESearchSearcher(spriteTerms)
	if err != nil {
		return nil, err
	}

	ks := []int{5, 10, 15, 20, 25, 30}
	spriteAbs := MeasureAt(dep.SpriteSearcher(), env.Test, ks)
	esAbs := MeasureAt(es, env.Test, ks)
	centralAbs := MeasureAt(env.CentralSearcher(), env.Test, ks)

	res := &Fig4aResult{Ks: ks}
	for _, k := range ks {
		res.Sprite = append(res.Sprite, ir.Ratio(spriteAbs[k], centralAbs[k]))
		res.ESearch = append(res.ESearch, ir.Ratio(esAbs[k], centralAbs[k]))
	}
	return res, nil
}

// ratioColumns are the four ratio-to-centralized columns every Figure 4
// panel reports after its x-axis.
var ratioColumns = []Column{
	{"sprite_precision", 4}, {"esearch_precision", 4}, {"sprite_recall", 4}, {"esearch_recall", 4},
}

// ratioCells returns the four ratio cells of one Figure 4 point.
func ratioCells(sprite, es ir.Metrics) []any {
	return []any{sprite.Precision, es.Precision, sprite.Recall, es.Recall}
}

// Report renders Figure 4(a) in the paper's row form.
func (r *Fig4aResult) Report() *Report {
	rep := &Report{
		Title:   "Figure 4(a): precision/recall ratio vs number of answers K",
		Columns: append([]Column{{"k", 0}}, ratioColumns...),
	}
	for i, k := range r.Ks {
		rep.Rows = append(rep.Rows, append([]any{k}, ratioCells(r.Sprite[i], r.ESearch[i])...))
	}
	return rep
}

// Fig4bVariant names the two query workloads of Figure 4(b).
type Fig4bVariant string

const (
	// WithoutRepeats ("w/o-r"): every training query is inserted exactly
	// once — the adversarial extreme for a learner.
	WithoutRepeats Fig4bVariant = "w/o-r"
	// WithZipf ("w-zipf"): query frequency follows a Zipf distribution with
	// slope 0.5, per the search-trace analyses the paper cites.
	WithZipf Fig4bVariant = "w-zipf"
)

// Fig4bResult is Figure 4(b): precision (and recall, which the paper omits
// for space but reports as showing the same trend) versus the number of
// indexed terms, for one workload variant.
type Fig4bResult struct {
	Variant Fig4bVariant
	Terms   []int
	Sprite  []ir.Metrics // ratio to centralized
	ESearch []ir.Metrics // ratio to centralized, at the same term budget
}

// RunFig4b sweeps the number of indexed terms {5,10,...,30} for the given
// workload. One deployment runs incrementally: after the initial 5 terms,
// each learning iteration adds 5 more, and the network is probed (without
// perturbing it) at each checkpoint. eSearch is rebuilt at each term budget.
func RunFig4b(cfg Config, variant Fig4bVariant) (*Fig4bResult, error) {
	cfg = cfg.fillDefaults()
	cfg.Core.TermsPerIteration = 5
	cfg.Core.MaxIndexTerms = 30
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	dep, err := env.NewDeployment(cfg.Core)
	if err != nil {
		return nil, err
	}

	switch variant {
	case WithoutRepeats:
		if err := dep.InsertQueries(env.Train); err != nil {
			return nil, err
		}
	case WithZipf:
		// Same query population, Zipf-weighted repetition, 3× volume.
		if err := dep.InsertZipfQueryStream(env.Train, 3*len(env.Train), 0.5, cfg.Seed+7); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("eval: unknown fig4b variant %q", variant)
	}
	if err := dep.ShareAll(); err != nil {
		return nil, err
	}

	centralAbs := Measure(env.CentralSearcher(), env.Test, cfg.TopK)
	res := &Fig4bResult{Variant: variant}
	for checkpoint := 0; checkpoint <= 5; checkpoint++ {
		if checkpoint > 0 {
			if err := dep.Learn(1); err != nil {
				return nil, err
			}
		}
		terms := cfg.Core.InitialTerms + 5*checkpoint
		es, err := env.ESearchSearcher(terms)
		if err != nil {
			return nil, err
		}
		spriteAbs := Measure(dep.SpriteSearcher(), env.Test, cfg.TopK)
		esAbs := Measure(es, env.Test, cfg.TopK)
		res.Terms = append(res.Terms, terms)
		res.Sprite = append(res.Sprite, ir.Ratio(spriteAbs, centralAbs))
		res.ESearch = append(res.ESearch, ir.Ratio(esAbs, centralAbs))
	}
	return res, nil
}

// Report renders one workload of Figure 4(b) in the paper's row form.
func (r *Fig4bResult) Report() *Report {
	rep := &Report{
		Title:   "Figure 4(b): precision/recall ratio vs number of indexed terms",
		Columns: append([]Column{{"variant", 0}, {"terms", 0}}, ratioColumns...),
	}
	for i, terms := range r.Terms {
		rep.Rows = append(rep.Rows, append([]any{string(r.Variant), terms}, ratioCells(r.Sprite[i], r.ESearch[i])...))
	}
	return rep
}

// Fig4cResult is Figure 4(c): precision and recall per learning iteration
// with a query-pattern change at iteration 6.
type Fig4cResult struct {
	Iterations []int
	Sprite     []ir.Metrics // ratio to centralized
	ESearch    []ir.Metrics // ratio to centralized
	// SwitchAt is the iteration at which the second query group takes over.
	SwitchAt int
}

// RunFig4c reproduces the robustness experiment: the query set is evenly
// partitioned into two groups such that all new queries and their original
// are in the same group (we partition by the original query's latent topic,
// giving the groups genuinely different interests). Iterations 1–5 process
// and evaluate group 1; iterations 6–10 process and evaluate group 2, which
// the system has never seen. The term cap is 30; once reached, only
// replacement occurs, and eSearch (whose index stops growing at 30 terms)
// stays flat.
func RunFig4c(cfg Config) (*Fig4cResult, error) {
	cfg = cfg.fillDefaults()
	cfg.Core.TermsPerIteration = 5
	cfg.Core.MaxIndexTerms = 30
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}

	// Partition by origin topic so the two groups have disjoint interests.
	numTopics := cfg.Corpus.FillDefaults().NumTopics
	inGroup1 := func(q *corpus.Query) bool {
		return env.Col.QueryTopic[env.Gen.Origin[q.ID]] < numTopics/2
	}
	var train1, train2, test1, test2 []*corpus.Query
	for _, q := range env.Train {
		if inGroup1(q) {
			train1 = append(train1, q)
		} else {
			train2 = append(train2, q)
		}
	}
	for _, q := range env.Test {
		if inGroup1(q) {
			test1 = append(test1, q)
		} else {
			test2 = append(test2, q)
		}
	}

	dep, err := env.NewDeployment(cfg.Core)
	if err != nil {
		return nil, err
	}
	if err := dep.ShareAll(); err != nil {
		return nil, err
	}

	const totalIters = 10
	const switchAt = 6
	res := &Fig4cResult{SwitchAt: switchAt}
	for iter := 1; iter <= totalIters; iter++ {
		trainQ, testQ := train1, test1
		if iter >= switchAt {
			trainQ, testQ = train2, test2
		}
		// Process this group's query stream in batches: one fifth per
		// iteration, cycling so each of the 5 iterations sees fresh queries.
		batch := pickBatch(trainQ, (iter-1)%5, 5)
		if err := dep.InsertQueries(batch); err != nil {
			return nil, err
		}
		if err := dep.Learn(1); err != nil {
			return nil, err
		}

		spriteTerms := cfg.Core.InitialTerms + 5*iter
		if spriteTerms > cfg.Core.MaxIndexTerms {
			spriteTerms = cfg.Core.MaxIndexTerms
		}
		es, err := env.ESearchSearcher(spriteTerms)
		if err != nil {
			return nil, err
		}
		centralAbs := Measure(env.CentralSearcher(), testQ, cfg.TopK)
		spriteAbs := Measure(dep.SpriteSearcher(), testQ, cfg.TopK)
		esAbs := Measure(es, testQ, cfg.TopK)

		res.Iterations = append(res.Iterations, iter)
		res.Sprite = append(res.Sprite, ir.Ratio(spriteAbs, centralAbs))
		res.ESearch = append(res.ESearch, ir.Ratio(esAbs, centralAbs))
	}
	return res, nil
}

// pickBatch returns the i-th of n roughly equal batches of queries.
func pickBatch(queries []*corpus.Query, i, n int) []*corpus.Query {
	if len(queries) == 0 {
		return nil
	}
	per := (len(queries) + n - 1) / n
	lo := i * per
	if lo >= len(queries) {
		return nil
	}
	hi := lo + per
	if hi > len(queries) {
		hi = len(queries)
	}
	return queries[lo:hi]
}

// Report renders Figure 4(c) in the paper's row form; pattern_change is 1 on
// the iteration the second query group takes over.
func (r *Fig4cResult) Report() *Report {
	rep := &Report{
		Title:   "Figure 4(c): precision/recall ratio per learning iteration",
		Columns: append([]Column{{"iteration", 0}, {"pattern_change", 0}}, ratioColumns...),
	}
	for i, iter := range r.Iterations {
		change := 0
		if iter == r.SwitchAt {
			change = 1
		}
		rep.Rows = append(rep.Rows, append([]any{iter, change}, ratioCells(r.Sprite[i], r.ESearch[i])...))
	}
	return rep
}
