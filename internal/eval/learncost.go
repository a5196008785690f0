package eval

import "fmt"

// LearnCostResult quantifies the §1 maintenance-cost argument over time: the
// DHT traffic of each learning iteration (polls + publications + removals),
// per document, as the index grows from the initial F terms toward the cap.
// The comparison column is the analytic cost of maintaining a full-term
// index at the same cadence — each of a document's distinct terms polled
// once per period at the measured average routing cost.
type LearnCostResult struct {
	Iterations []int
	// MsgsPerDoc is the measured SPRITE traffic per document per iteration.
	MsgsPerDoc []float64
	// TermsPerDoc is the average number of indexed terms after the iteration.
	TermsPerDoc []float64
	// FullMsgsPerDoc is the analytic per-document cost of polling every
	// distinct term at the same routing cost.
	FullMsgsPerDoc float64
	// AvgHops is the measured mean routing cost per DHT operation.
	AvgHops float64
	// UnshareMsgsPerDoc is the traffic per document of unsharing every
	// document after the last iteration.
	UnshareMsgsPerDoc float64
}

// RunLearnCost trains the default deployment and measures the message cost
// of each of the first five learning iterations, then of unsharing every
// document.
func RunLearnCost(cfg Config) (*LearnCostResult, error) {
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
	if err := dep.InsertQueries(env.Train); err != nil {
		return nil, err
	}
	if err := dep.ShareAll(); err != nil {
		return nil, err
	}
	docs := float64(env.Col.Corpus.N())

	res := &LearnCostResult{}
	var totalHops, hopOps int64
	for iter := 1; iter <= 5; iter++ {
		dep.Sim.ResetStats()
		if err := dep.Learn(1); err != nil {
			return nil, err
		}
		stats := dep.Sim.Stats()
		res.Iterations = append(res.Iterations, iter)
		res.MsgsPerDoc = append(res.MsgsPerDoc, float64(stats.Calls)/docs)
		totalHops += stats.CallsByType["chord.next_hop"]
		hopOps += stats.CallsByType["sprite.poll"] + stats.CallsByType["sprite.publish"]

		terms := 0
		for _, id := range dep.Net.Documents() {
			ts, err := dep.Net.IndexedTerms(id)
			if err != nil {
				return nil, err
			}
			terms += len(ts)
		}
		res.TermsPerDoc = append(res.TermsPerDoc, float64(terms)/docs)
	}
	if hopOps > 0 {
		res.AvgHops = float64(totalHops) / float64(hopOps)
	}

	dep.Sim.ResetStats()
	for _, id := range dep.Net.Documents() {
		if err := dep.Net.Unshare(id); err != nil {
			return nil, err
		}
	}
	res.UnshareMsgsPerDoc = float64(dep.Sim.Stats().Calls) / docs

	// Analytic full-index maintenance: every distinct term of every document
	// polled once per period, each poll costing (avg hops + 1) messages.
	distinct := 0
	for _, d := range env.Col.Corpus.Docs() {
		distinct += len(d.TF)
	}
	res.FullMsgsPerDoc = float64(distinct) / docs * (res.AvgHops + 1)
	return res, nil
}

// Report renders the result; the analytic full-term cost and the measured
// mean routing cost it is priced at repeat on every row.
func (r *LearnCostResult) Report() *Report {
	rep := &Report{
		Title: "Learning/maintenance traffic per document per iteration (§1 cost argument)",
		Columns: []Column{{"iteration", 0}, {"msgs_per_doc", 2}, {"terms_per_doc", 2},
			{"full_msgs_per_doc", 2}, {"avg_hops", 2}},
		Notes: []string{
			"full_msgs_per_doc is analytic: every distinct term of a document polled once per period at avg_hops + 1 messages.",
			fmt.Sprintf("unsharing every document after iteration %d: %.2f msgs/doc.", len(r.Iterations), r.UnshareMsgsPerDoc),
		},
	}
	for i, iter := range r.Iterations {
		rep.Rows = append(rep.Rows, []any{iter, r.MsgsPerDoc[i], r.TermsPerDoc[i], r.FullMsgsPerDoc, r.AvgHops})
	}
	return rep
}
