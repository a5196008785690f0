package eval

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/spritedht/sprite/internal/deploy"
)

// ScaleArm is one ring size of the scale sweep: a full deployment trained
// per §6.2, then measured over a Zipf query stream on the virtual clock.
type ScaleArm struct {
	// Peers is the ring size; Fingers the mean number of finger-table
	// entries a node stores at that size (the table sizes itself).
	Peers   int
	Fingers float64
	// Queries is the measured Zipf stream volume.
	Queries int
	// Exact per-query virtual latency (microseconds): order statistics over
	// all Queries samples, not histogram-interpolated.
	MeanUS float64
	P50US  int64
	P95US  int64
	P99US  int64
	// MsgsPerQuery and BytesPerQuery are the transport cost of the measured
	// stream divided by its volume.
	MsgsPerQuery  float64
	BytesPerQuery float64
	// VirtualSecs is the simulated time the measured stream spanned; WallMS
	// is the real time the whole arm took (build + train + measure).
	VirtualSecs float64
	WallMS      int64
	// Quality is precision/recall on the test set at TopK. Per-term search
	// state lands with whichever peer owns the term, so quality must not
	// move with ring size; the column is the evidence.
	Quality quality
	// FixMsgs and FixRounds are the maintenance price of the finger table:
	// chord.next_hop messages and fixFinger rounds per node for one full
	// refresh cycle of its table, measured after the query stream.
	FixMsgs   float64
	FixRounds float64
}

// fixSample bounds how many nodes per arm have their finger refresh measured.
const fixSample = 4096

// quality is the slim P/R pair the scale table reports.
type quality struct {
	Precision float64
	Recall    float64
}

// ScaleResult is the ring-size sweep. It always runs on virtual time — that
// is the point: the slept link delays advance a deterministic event clock,
// so a sweep that spans hours of simulated time finishes in seconds.
type ScaleResult struct {
	// Delay is the constant one-way link delay each simulated call sleeps.
	Delay time.Duration
	// Slope is the Zipf slope of the measured query stream.
	Slope float64
	Arms  []ScaleArm
}

// RunScale measures query latency and message cost as a function of ring
// size: for each ring in rings it builds a deployment (sequential fan-out,
// lean transport stats, no telemetry — the configuration that maximizes
// simulated throughput), trains it per §6.2, then replays volume queries
// drawn Zipf(slope) from the test set with every link delay slept on the
// deployment's virtual clock. Latency columns are exact virtual
// microseconds; rings defaults to {10000, 25000, 50000, 100000}, volume to
// 250000 per ring, slope to 0.5 (the paper's w-zipf), delay <= 0 to 1ms.
func RunScale(cfg Config, rings []int, volume int, slope float64, delay time.Duration) (*ScaleResult, error) {
	cfg = cfg.fillDefaults()
	if len(rings) == 0 {
		rings = []int{10000, 25000, 50000, 100000}
	}
	if volume <= 0 {
		volume = 250000
	}
	if slope <= 0 {
		slope = 0.5
	}
	if delay <= 0 {
		delay = time.Millisecond
	}
	// Telemetry would put a histogram observation and gauge swing on every
	// simulated call — at tens of millions of calls the sweep cannot afford
	// it, and the exact percentiles come from collected samples anyway.
	cfg.Telemetry = nil
	cfg.VirtualTime = true
	cfg.LinkDelay = delay
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}

	// The sweep's heap is dominated by live ring state — at 100k peers the
	// finger tables alone are most of it — over which the collector would
	// otherwise cycle repeatedly while the measured stream allocates little.
	// Trading heap headroom for fewer cycles saves seconds per arm and is
	// invisible to the experiment: GC timing never touches the virtual clock
	// or the rankings.
	oldGC := debug.SetGCPercent(300)
	defer debug.SetGCPercent(oldGC)

	res := &ScaleResult{Delay: delay, Slope: slope}
	for i, peers := range rings {
		if i > 0 {
			// Reclaim the previous arm's ring and index state eagerly so the
			// next arm's query stream is not taxed by a heap full of garbage
			// from a deployment that no longer exists.
			runtime.GC()
		}
		arm, err := runScaleArm(env, peers, volume, slope, delay)
		if err != nil {
			return nil, fmt.Errorf("eval: scale arm %d peers: %w", peers, err)
		}
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}

// runScaleArm builds, trains, and measures one ring size: a virtual
// deployment with lean stats, link delay accounted but not slept, at
// Parallelism 1 and without telemetry.
func runScaleArm(env *Env, peers, volume int, slope float64, delay time.Duration) (ScaleArm, error) {
	wallStart := time.Now()
	coreCfg := env.Cfg.Core
	coreCfg.Parallelism = 1
	dep, err := deploy.New(deploy.Spec{
		Peers: peers, Prefix: "peer", Seed: env.Cfg.Seed + 1,
		Virtual: true, LinkDelay: delay, Lean: true, Core: coreCfg,
	})
	if err != nil {
		return ScaleArm{}, err
	}
	d := &Deployment{Deployment: dep, Env: env}

	arm := ScaleArm{Peers: peers, Queries: volume}
	var (
		samples []int64
		runErr  error
	)
	d.Run(func() {
		if runErr = d.InsertQueries(env.Train); runErr != nil {
			return
		}
		if runErr = d.ShareAll(); runErr != nil {
			return
		}
		if runErr = d.Learn(env.Cfg.LearningIterations); runErr != nil {
			return
		}

		// The measured stream: volume Zipf draws over the test set, link
		// delays slept on the virtual clock, per-query latency sampled
		// exactly. Training above ran with latency accounted but not slept.
		searcher := timedSearcher(d.SpriteSearcher(), d.Clock, &samples)
		d.Sim.ResetStats()
		d.Sim.SetSleepLatency(true)
		vStart := d.Clock.Elapsed()
		for _, r := range zipfRanks(len(env.Test), volume, slope, env.Cfg.Seed+7) {
			q := env.Test[r]
			searcher(q.Terms, env.Cfg.TopK)
		}
		arm.VirtualSecs = (d.Clock.Elapsed() - vStart).Seconds()
		d.Sim.SetSleepLatency(false)
		st := d.Sim.Stats()
		arm.MsgsPerQuery = float64(st.Calls) / float64(volume)
		arm.BytesPerQuery = float64(st.Bytes) / float64(volume)

		// Quality over the unique test queries (non-perturbing probes, no
		// sleeping) — ring size must not move precision or recall.
		m := Measure(d.SpriteSearcher(), env.Test, env.Cfg.TopK)
		arm.Quality = quality{Precision: m.Precision, Recall: m.Recall}

		// The other side of the routing ledger: what one full refresh of a
		// finger table costs, over every node up to fixSample peers and an
		// evenly spaced sample of that many above (a refresh of all 100k
		// tables is 18M lookup hops, half the arm's wall time). Measured
		// last — on a built ring a refresh changes nothing, and the counters
		// above are already taken.
		d.Sim.ResetStats()
		stride, sampled, rounds := (peers+fixSample-1)/fixSample, 0, 0
		for i, n := range d.Ring.Nodes() {
			arm.Fingers += float64(n.FingerCount())
			if i%stride == 0 {
				rounds += n.RepairFingers()
				sampled++
			}
		}
		arm.Fingers /= float64(peers)
		arm.FixRounds = float64(rounds) / float64(sampled)
		arm.FixMsgs = float64(d.Sim.Stats().Calls) / float64(sampled)
	})
	if runErr != nil {
		return ScaleArm{}, runErr
	}
	lat := summarize(samples)
	arm.MeanUS, arm.P50US, arm.P95US, arm.P99US = lat.Mean, lat.P50, lat.P95, lat.P99
	arm.WallMS = time.Since(wallStart).Milliseconds()
	return arm, nil
}

// Report renders one row per ring size. Latencies are exact virtual
// microseconds; wall_ms is the arm's real time and the one column that
// varies between runs.
func (r *ScaleResult) Report() *Report {
	rep := &Report{
		Title: "Scale sweep: query latency on the virtual clock vs ring size",
		Columns: []Column{
			{"peers", 0}, {"fingers_per_node", 1}, {"queries", 0}, {"link_delay_us", 0}, {"zipf_slope", 2},
			{"mean_us", 1}, {"p50_us", 0}, {"p95_us", 0}, {"p99_us", 0},
			{"msgs_per_query", 2}, {"bytes_per_query", 1}, {"virtual_secs", 1}, {"wall_ms", 0},
			{"precision", 4}, {"recall", 4}, {"fix_msgs_per_node", 1}, {"fix_rounds_per_node", 1},
		},
	}
	for _, a := range r.Arms {
		rep.Rows = append(rep.Rows, []any{
			a.Peers, a.Fingers, a.Queries, r.Delay.Microseconds(), r.Slope,
			a.MeanUS, a.P50US, a.P95US, a.P99US,
			a.MsgsPerQuery, a.BytesPerQuery, a.VirtualSecs, a.WallMS,
			a.Quality.Precision, a.Quality.Recall, a.FixMsgs, a.FixRounds,
		})
	}
	return rep
}
