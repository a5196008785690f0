package eval

import (
	"context"
	"errors"

	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/ir"
)

// ExpansionResult compares plain distributed retrieval against retrieval
// with local-context-analysis query expansion (§7), at several expansion
// depths.
type ExpansionResult struct {
	// Depths[i] is the number of expansion terms; 0 is the plain baseline.
	Depths  []int
	Metrics []ir.Metrics // ratio to centralized at cfg.TopK
	// ExtraMessages[i] is the mean number of additional RPCs per query
	// relative to the plain baseline — expansion's price.
	ExtraMessages []float64
}

// RunExpansion trains and learns the default deployment, then probes the
// testing queries with 0 (plain), 2, 4, and 6 expansion terms, reporting
// quality ratios and per-query message overhead.
func RunExpansion(cfg Config) (*ExpansionResult, error) {
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
	centralAbs := Measure(env.CentralSearcher(), env.Test, cfg.TopK)

	res := &ExpansionResult{}
	var baselineMsgs float64
	for _, depth := range []int{0, 2, 4, 6} {
		searcher, msgs := dep.expansionSearcher(depth)
		abs := Measure(searcher, env.Test, cfg.TopK)
		perQuery := float64(*msgs) / float64(len(env.Test))
		if depth == 0 {
			baselineMsgs = perQuery
		}
		res.Depths = append(res.Depths, depth)
		res.Metrics = append(res.Metrics, ir.Ratio(abs, centralAbs))
		res.ExtraMessages = append(res.ExtraMessages, perQuery-baselineMsgs)
	}
	return res, nil
}

// expansionSearcher returns a searcher using the given expansion depth
// (0 = plain ProbeCtx) plus a counter of the RPCs it generated. A degraded
// query is scored on the ranking over the terms it reached.
func (d *Deployment) expansionSearcher(depth int) (Searcher, *int64) {
	msgs := new(int64)
	return func(terms []string, k int) ir.RankedList {
		before := d.Sim.Stats().Calls
		var rl ir.RankedList
		var err error
		from := d.nextIssuer()
		if depth == 0 {
			rl, err = d.Net.ProbeCtx(context.Background(), from, terms, k)
		} else {
			rl, _, err = d.Net.SearchExpanded(from, terms, k, core.ExpandOptions{
				FeedbackDocs:   5,
				ExpansionTerms: depth,
			})
		}
		*msgs += d.Sim.Stats().Calls - before
		if err != nil && !errors.Is(err, core.ErrPartialResults) {
			return nil
		}
		return rl
	}, msgs
}

// Report renders the result; expansion_terms 0 is the plain baseline.
func (r *ExpansionResult) Report() *Report {
	rep := &Report{
		Title:   "Query expansion (local context analysis, §7): quality vs cost",
		Columns: []Column{{"expansion_terms", 0}, {"precision", 4}, {"recall", 4}, {"extra_msgs_per_query", 1}},
	}
	for i, d := range r.Depths {
		rep.Rows = append(rep.Rows, []any{d, r.Metrics[i].Precision, r.Metrics[i].Recall, r.ExtraMessages[i]})
	}
	return rep
}
