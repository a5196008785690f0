package eval

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/vtime"
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

// runScaleArm builds, trains, and measures one ring size. The deployment is
// assembled here rather than through NewDeployment because the sweep sets the
// ring size per arm and runs the transport with lean stats.
func runScaleArm(env *Env, peers, volume int, slope float64, delay time.Duration) (ScaleArm, error) {
	wallStart := time.Now()
	clk := vtime.NewSim()
	snet := simnet.New(env.Cfg.Seed+1,
		simnet.WithClock(clk),
		simnet.WithLatency(simnet.UniformLatency(delay, delay)),
		simnet.WithLeanStats())
	ring := chord.NewRing(snet, chord.Config{})

	coreCfg := env.Cfg.Core
	coreCfg.Parallelism = 1
	coreCfg.Telemetry = nil
	coreCfg.Clock = clk
	d := &Deployment{Env: env, Sim: snet, Ring: ring, Clk: clk}

	arm := ScaleArm{Peers: peers, Queries: volume}
	var (
		samples []int64
		runErr  error
	)
	d.Run(func() {
		if _, runErr = ring.AddNodes("peer", peers); runErr != nil {
			return
		}
		ring.Build()
		d.Net, runErr = core.NewNetwork(ring, coreCfg)
		if runErr != nil {
			return
		}
		for _, p := range d.Net.Peers() {
			d.addrs = append(d.addrs, p.Addr())
		}
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
		searcher := timedSearcher(d.SpriteSearcher(), clk, &samples)
		d.Sim.ResetStats()
		d.Sim.SetSleepLatency(true)
		vStart := clk.Elapsed()
		for _, r := range zipfRanks(len(env.Test), volume, slope, env.Cfg.Seed+7) {
			q := env.Test[r]
			searcher(q.Terms, env.Cfg.TopK)
		}
		arm.VirtualSecs = (clk.Elapsed() - vStart).Seconds()
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
		for i, n := range ring.Nodes() {
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

// Table renders the sweep.
func (r *ScaleResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale sweep: virtual-time query latency vs ring size (%v link delay, zipf %.2f)\n",
		r.Delay, r.Slope)
	fmt.Fprintf(&b, "%-9s %-8s %-9s %-10s %-9s %-9s %-9s %-10s %-10s %-9s %-9s %-9s %-10s %-18s\n",
		"peers", "fingers", "queries", "mean_us", "p50_us", "p95_us", "p99_us",
		"msgs/q", "bytes/q", "vsecs", "wall_ms", "fix_msgs", "fix_rounds", "precision/recall")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%-9d %-8.1f %-9d %-10.1f %-9d %-9d %-9d %-10.2f %-10.1f %-9.1f %-9d %-9.1f %-10.1f P=%.4f R=%.4f\n",
			a.Peers, a.Fingers, a.Queries, a.MeanUS, a.P50US, a.P95US, a.P99US,
			a.MsgsPerQuery, a.BytesPerQuery, a.VirtualSecs, a.WallMS, a.FixMsgs, a.FixRounds,
			a.Quality.Precision, a.Quality.Recall)
	}
	return b.String()
}

// CSV renders one row per ring size.
func (r *ScaleResult) CSV() string {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		rows = append(rows, []string{
			fmt.Sprint(a.Peers), fmt.Sprintf("%.1f", a.Fingers), fmt.Sprint(a.Queries),
			fmt.Sprint(r.Delay.Microseconds()), fmt.Sprintf("%.2f", r.Slope),
			fmt.Sprintf("%.1f", a.MeanUS), fmt.Sprint(a.P50US), fmt.Sprint(a.P95US), fmt.Sprint(a.P99US),
			fmt.Sprintf("%.2f", a.MsgsPerQuery), fmt.Sprintf("%.1f", a.BytesPerQuery),
			fmt.Sprintf("%.1f", a.VirtualSecs), fmt.Sprint(a.WallMS),
			f4(a.Quality.Precision), f4(a.Quality.Recall),
			fmt.Sprintf("%.1f", a.FixMsgs), fmt.Sprintf("%.1f", a.FixRounds),
		})
	}
	return csvRows("peers,fingers_per_node,queries,link_delay_us,zipf_slope,mean_us,p50_us,p95_us,p99_us,msgs_per_query,bytes_per_query,virtual_secs,wall_ms,precision,recall,fix_msgs_per_node,fix_rounds_per_node", rows)
}
