package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/ir"
)

// CacheRepeatResult measures the query-path caches under the paper's own
// workload premise — a skewed, repetitive query stream (§6.3's w-zipf).
// Two identically trained deployments replay the same Zipfian stream of
// test queries, one with the caches off and one with them on, and the
// simulated transport accounts every message and byte. Quality is measured
// on both deployments afterwards: caching must not move precision or recall
// at all (the no-stale guarantee).
type CacheRepeatResult struct {
	// Volume is the number of replayed queries; Distinct the size of the
	// underlying query set; Slope the Zipf slope.
	Volume   int
	Distinct int
	Slope    float64

	// Replay-phase traffic, cache off vs on.
	OffMessages int64
	OnMessages  int64
	OffBytes    int64
	OnBytes     int64
	// Remote postings fetches during the replay (the dominant cost the
	// postings cache removes).
	OffPostingsFetches int64
	OnPostingsFetches  int64

	// Cache effectiveness over the replay.
	PostingsHitRate float64
	ResultHitRate   float64
	Coalesced       int64

	// MsgReduction and ByteReduction are 1 − on/off.
	MsgReduction  float64
	ByteReduction float64

	// Retrieval quality on the test set at TopK — must be identical.
	OffQuality ir.Metrics
	OnQuality  ir.Metrics
}

// RunCacheRepeat builds two deployments through the full §6.2 pipeline
// (insert training queries, share, learn), replays a Zipfian stream of
// volume test queries through each, and reports the traffic saved by the
// caches. volume <= 0 defaults to 4× the test set; slope <= 0 defaults to
// the paper's 0.5.
func RunCacheRepeat(cfg Config, volume int, slope float64) (*CacheRepeatResult, error) {
	cfg = cfg.fillDefaults()
	if slope <= 0 {
		slope = 0.5
	}
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	if volume <= 0 {
		volume = 4 * len(env.Test)
	}

	build := func(cacheCfg core.CacheConfig) (*Deployment, error) {
		coreCfg := cfg.Core
		coreCfg.Cache = cacheCfg
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
	off, err := build(core.CacheConfig{})
	if err != nil {
		return nil, fmt.Errorf("eval: cache-off deployment: %w", err)
	}
	// ResultTTL is pinned far past the run so the measurement is a pure
	// function of the workload, not of wall-clock scheduling.
	on, err := build(core.CacheConfig{Enabled: true, ResultTTL: time.Hour})
	if err != nil {
		return nil, fmt.Errorf("eval: cache-on deployment: %w", err)
	}

	ranks := zipfRanks(len(env.Test), volume, slope, cfg.Seed+13)
	replay := func(d *Deployment) (msgs, bytes, fetches int64, err error) {
		d.Sim.ResetStats()
		for _, r := range ranks {
			q := env.Test[r]
			_, perr := d.Net.ProbeCtx(context.Background(), d.nextIssuer(), q.Terms, cfg.TopK)
			if perr != nil && !errors.Is(perr, core.ErrPartialResults) {
				return 0, 0, 0, fmt.Errorf("eval: replay %s: %w", q.ID, perr)
			}
		}
		st := d.Sim.Stats()
		return st.Calls, st.Bytes, st.CallsByType["sprite.get_postings"], nil
	}

	res := &CacheRepeatResult{Volume: volume, Distinct: len(env.Test), Slope: slope}
	if res.OffMessages, res.OffBytes, res.OffPostingsFetches, err = replay(off); err != nil {
		return nil, err
	}
	if res.OnMessages, res.OnBytes, res.OnPostingsFetches, err = replay(on); err != nil {
		return nil, err
	}
	pst, rst := on.Net.PostingsCacheStats(), on.Net.ResultCacheStats()
	res.PostingsHitRate = pst.HitRate()
	res.ResultHitRate = rst.HitRate()
	res.Coalesced = pst.Coalesced
	if res.OffMessages > 0 {
		res.MsgReduction = 1 - float64(res.OnMessages)/float64(res.OffMessages)
	}
	if res.OffBytes > 0 {
		res.ByteReduction = 1 - float64(res.OnBytes)/float64(res.OffBytes)
	}

	res.OffQuality = Measure(off.SpriteSearcher(), env.Test, cfg.TopK)
	res.OnQuality = Measure(on.SpriteSearcher(), env.Test, cfg.TopK)
	return res, nil
}

// Table renders the result.
func (r *CacheRepeatResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Repeated-query caching (Zipf slope %.2f, %d queries over %d distinct)\n",
		r.Slope, r.Volume, r.Distinct)
	fmt.Fprintf(&b, "%-22s %-14s %-14s %-12s\n", "", "cache off", "cache on", "reduction")
	fmt.Fprintf(&b, "%-22s %-14d %-14d %.1f%%\n", "messages", r.OffMessages, r.OnMessages, 100*r.MsgReduction)
	fmt.Fprintf(&b, "%-22s %-14d %-14d %.1f%%\n", "bytes", r.OffBytes, r.OnBytes, 100*r.ByteReduction)
	fmt.Fprintf(&b, "%-22s %-14d %-14d\n", "postings fetches", r.OffPostingsFetches, r.OnPostingsFetches)
	fmt.Fprintf(&b, "postings hit rate %.3f, result hit rate %.3f, coalesced %d\n",
		r.PostingsHitRate, r.ResultHitRate, r.Coalesced)
	fmt.Fprintf(&b, "quality at top-k: off P=%.4f R=%.4f | on P=%.4f R=%.4f\n",
		r.OffQuality.Precision, r.OffQuality.Recall, r.OnQuality.Precision, r.OnQuality.Recall)
	return b.String()
}

// CSV renders the result as a single data row.
func (r *CacheRepeatResult) CSV() string {
	row := []string{
		fmt.Sprint(r.Volume), fmt.Sprint(r.Distinct), fmt.Sprintf("%.2f", r.Slope),
		fmt.Sprint(r.OffMessages), fmt.Sprint(r.OnMessages), f4(r.MsgReduction),
		fmt.Sprint(r.OffBytes), fmt.Sprint(r.OnBytes), f4(r.ByteReduction),
		fmt.Sprint(r.OffPostingsFetches), fmt.Sprint(r.OnPostingsFetches),
		f4(r.PostingsHitRate), f4(r.ResultHitRate), fmt.Sprint(r.Coalesced),
		f4(r.OffQuality.Precision), f4(r.OnQuality.Precision),
		f4(r.OffQuality.Recall), f4(r.OnQuality.Recall),
	}
	return csvRows(
		"volume,distinct,slope,off_msgs,on_msgs,msg_reduction,off_bytes,on_bytes,byte_reduction,"+
			"off_postings_fetches,on_postings_fetches,postings_hit_rate,result_hit_rate,coalesced,"+
			"off_precision,on_precision,off_recall,on_recall",
		[][]string{row})
}
