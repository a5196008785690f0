package eval

import (
	"fmt"
	"math"
)

// This file adds statistical replication: the headline experiment re-run
// across independent seeds (fresh corpus, query set, split, and network per
// seed) with mean and standard deviation reported per point. Single-seed
// results from a synthetic corpus carry sampling noise; replication is what
// licenses statements like "SPRITE ≈ 0.88 of centralized".

// Fig4aAggregate is Figure 4(a) replicated across seeds.
type Fig4aAggregate struct {
	Seeds int
	Ks    []int
	// Per K: mean and standard deviation of the precision ratios.
	SpriteMean, SpriteStd   []float64
	ESearchMean, ESearchStd []float64
	// Recall aggregates.
	SpriteRecMean, SpriteRecStd   []float64
	ESearchRecMean, ESearchRecStd []float64
}

// RunFig4aReplicated runs Fig. 4(a) across `seeds` independent replications.
// Every stochastic component — corpus, query generation, train/test split,
// network — is re-seeded per run.
func RunFig4aReplicated(cfg Config, seeds int) (*Fig4aAggregate, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("eval: seeds = %d, need >= 1", seeds)
	}
	var runs []*Fig4aResult
	for s := 0; s < seeds; s++ {
		c := cfg
		c.Corpus.Seed = cfg.Corpus.Seed + int64(1000*s) + 1
		c.QueryGen.Seed = cfg.QueryGen.Seed + int64(1000*s) + 2
		c.Seed = cfg.Seed + int64(1000*s) + 3
		res, err := RunFig4a(c)
		if err != nil {
			return nil, fmt.Errorf("eval: replication %d: %w", s, err)
		}
		runs = append(runs, res)
	}

	agg := &Fig4aAggregate{Seeds: seeds, Ks: runs[0].Ks}
	for i := range agg.Ks {
		var sp, ep, sr, er []float64
		for _, r := range runs {
			sp = append(sp, r.Sprite[i].Precision)
			ep = append(ep, r.ESearch[i].Precision)
			sr = append(sr, r.Sprite[i].Recall)
			er = append(er, r.ESearch[i].Recall)
		}
		m, sd := meanStd(sp)
		agg.SpriteMean, agg.SpriteStd = append(agg.SpriteMean, m), append(agg.SpriteStd, sd)
		m, sd = meanStd(ep)
		agg.ESearchMean, agg.ESearchStd = append(agg.ESearchMean, m), append(agg.ESearchStd, sd)
		m, sd = meanStd(sr)
		agg.SpriteRecMean, agg.SpriteRecStd = append(agg.SpriteRecMean, m), append(agg.SpriteRecStd, sd)
		m, sd = meanStd(er)
		agg.ESearchRecMean, agg.ESearchRecStd = append(agg.ESearchRecMean, m), append(agg.ESearchRecStd, sd)
	}
	return agg, nil
}

// meanStd returns the sample mean and (population-normalized) standard
// deviation. A single sample has zero deviation.
func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	m := mean(xs)
	if len(xs) == 1 {
		return m, 0
	}
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, math.Sqrt(v / float64(len(xs)))
}

// Report renders the aggregate, one mean and standard deviation column pair
// per system and metric.
func (r *Fig4aAggregate) Report() *Report {
	rep := &Report{
		Title: "Figure 4(a) over independent seeds: precision/recall ratio vs number of answers K (mean, std)",
		Columns: []Column{{"k", 0},
			{"sprite_p_mean", 4}, {"sprite_p_std", 4}, {"esearch_p_mean", 4}, {"esearch_p_std", 4},
			{"sprite_r_mean", 4}, {"sprite_r_std", 4}, {"esearch_r_mean", 4}, {"esearch_r_std", 4},
			{"seeds", 0}},
	}
	for i, k := range r.Ks {
		rep.Rows = append(rep.Rows, []any{k,
			r.SpriteMean[i], r.SpriteStd[i], r.ESearchMean[i], r.ESearchStd[i],
			r.SpriteRecMean[i], r.SpriteRecStd[i], r.ESearchRecMean[i], r.ESearchRecStd[i],
			r.Seeds})
	}
	return rep
}
