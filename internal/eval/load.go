package eval

import (
	"math"
	"sort"
)

// LoadResult quantifies the §7(b) load-imbalance concern: how unevenly
// storage (postings per indexing peer) and traffic (RPCs per peer) spread
// across the network, and how much the hot-term advisory flattens it.
type LoadResult struct {
	Peers int

	// Storage distribution: postings held per indexing peer.
	PostingsMax  int
	PostingsMean float64
	PostingsGini float64

	// Traffic distribution: messages received per peer during the query
	// phase (training inserts + learning polls excluded; this is steady
	// state).
	TrafficMax  int64
	TrafficMean float64
	TrafficGini float64

	// WithAdvisory repeats the storage measurement with the hot-term
	// advisory enabled (threshold = 2× mean indexed df).
	WithAdvisory struct {
		PostingsMax  int
		PostingsMean float64
		PostingsGini float64
		HotThreshold int
	}
}

// RunLoadBalance trains and learns a deployment, runs the testing queries,
// and reports how storage and query traffic distribute across peers —
// then repeats with the hot-term advisory active to measure its flattening
// effect on the storage skew.
func RunLoadBalance(cfg Config) (*LoadResult, error) {
	cfg = cfg.fillDefaults()
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}

	build := func(hotDF int) (*Deployment, error) {
		coreCfg := cfg.Core
		coreCfg.HotTermDF = hotDF
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

	dep, err := build(0)
	if err != nil {
		return nil, err
	}
	res := &LoadResult{Peers: cfg.Peers}

	// Storage distribution.
	var postings []float64
	meanDF := 0
	for _, p := range dep.Net.Peers() {
		n := p.Index().NumPostings()
		postings = append(postings, float64(n))
		if n > res.PostingsMax {
			res.PostingsMax = n
		}
		meanDF += n
	}
	res.PostingsMean = mean(postings)
	res.PostingsGini = gini(postings)

	// Traffic distribution during the query phase only.
	dep.Sim.ResetStats()
	Measure(dep.SpriteSearcher(), env.Test, cfg.TopK)
	byDest := dep.Sim.Stats().CallsByDest
	var traffic []float64
	for _, p := range dep.Net.Peers() {
		c := byDest[p.Addr()]
		traffic = append(traffic, float64(c))
		if c > res.TrafficMax {
			res.TrafficMax = c
		}
	}
	res.TrafficMean = mean(traffic)
	res.TrafficGini = gini(traffic)

	// Repeat storage with the advisory: threshold 2× the mean per-term df.
	totalPostings, totalTerms := 0, 0
	for _, p := range dep.Net.Peers() {
		totalPostings += p.Index().NumPostings()
		totalTerms += p.Index().NumTerms()
	}
	threshold := 2
	if totalTerms > 0 {
		threshold = int(math.Ceil(2 * float64(totalPostings) / float64(totalTerms)))
		if threshold < 2 {
			threshold = 2
		}
	}
	res.WithAdvisory.HotThreshold = threshold

	adv, err := build(threshold)
	if err != nil {
		return nil, err
	}
	var advPostings []float64
	for _, p := range adv.Net.Peers() {
		n := p.Index().NumPostings()
		advPostings = append(advPostings, float64(n))
		if n > res.WithAdvisory.PostingsMax {
			res.WithAdvisory.PostingsMax = n
		}
	}
	res.WithAdvisory.PostingsMean = mean(advPostings)
	res.WithAdvisory.PostingsGini = gini(advPostings)
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gini computes the Gini coefficient of a non-negative distribution
// (0 = perfectly even, →1 = concentrated on one peer).
func gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for _, x := range sorted {
		total += x
	}
	if total == 0 {
		return 0
	}
	var lorenz float64
	for _, x := range sorted {
		cum += x
		lorenz += cum
	}
	n := float64(len(sorted))
	// Gini = 1 - 2·(area under Lorenz curve); discrete form below.
	return (n + 1 - 2*lorenz/total) / n
}

// Report renders the result; hot_df is the advisory's document-frequency
// threshold on the row it applies to.
func (r *LoadResult) Report() *Report {
	a := r.WithAdvisory
	return &Report{
		Title:   "Load distribution across peers (§7 imbalance concern)",
		Columns: []Column{{"metric", 0}, {"max", 0}, {"mean", 1}, {"gini", 4}, {"peers", 0}, {"hot_df", 0}},
		Rows: [][]any{
			{"postings", r.PostingsMax, r.PostingsMean, r.PostingsGini, r.Peers, 0},
			{"query_rpcs", r.TrafficMax, r.TrafficMean, r.TrafficGini, r.Peers, 0},
			{"postings_with_advisory", a.PostingsMax, a.PostingsMean, a.PostingsGini, r.Peers, a.HotThreshold},
		},
	}
}
