// Package eval is the experiment harness: it reproduces every figure of the
// SPRITE paper's performance study (§6) plus the supplementary systems-level
// measurements indexed in DESIGN.md. Each experiment is a pure function of
// its Config — all randomness is seeded — so results are reproducible
// bit-for-bit.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/spritedht/sprite/internal/central"
	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/esearch"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/querygen"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// Config assembles the full experimental setup of §6.2.
type Config struct {
	// Corpus parameterizes the synthetic TREC9-like collection. Ignored if
	// Collection is set.
	Corpus corpus.SynthConfig
	// Collection, if non-nil, supplies an externally built judged collection
	// (e.g. loaded with corpus.ReadCollection). When its queries already
	// include a derived set (cmd/corpusgen emits one), set SkipQueryGen.
	Collection *corpus.Collection
	// SkipQueryGen uses Collection's queries verbatim instead of running the
	// §6.1 generator over them.
	SkipQueryGen bool
	// QueryGen parameterizes the §6.1 query generator (O = 70%, k = 9, …).
	QueryGen querygen.Config
	// Peers is the number of DHT peers in the simulated network.
	Peers int
	// Core is SPRITE's configuration (5 initial terms, 5 per iteration, …).
	Core core.Config
	// TopK is the number of answers retrieved per query (paper: 20).
	TopK int
	// LearningIterations is the number of learning rounds after the initial
	// share (paper: 3, for 5 + 3×5 = 20 indexed terms).
	LearningIterations int
	// TrainFraction is the share of queries used for training (paper: half).
	TrainFraction float64
	// Seed drives the train/test split and any other harness randomness.
	Seed int64
	// Telemetry, if non-nil, receives metrics and traces from every layer of
	// each deployment (transport, overlay, SPRITE core). Nil leaves
	// instrumentation off.
	Telemetry *telemetry.Registry
	// ChurnRotateEvery is the number of test queries between fault rotations
	// in the churn experiment's transient arms: every interval, the faulty
	// peers recover and a freshly drawn set starts dropping calls. Zero
	// rotates four times over the test stream.
	ChurnRotateEvery int
	// LinkDelay, when positive, gives every simulated call a constant
	// one-way link delay. Constant (not drawn) so the transport's RNG stream
	// — and therefore every routed message — is identical with the delay on
	// or off; the parallelism and clock twin tests depend on that invariance.
	LinkDelay time.Duration
	// VirtualTime runs each deployment on a deterministic discrete-event
	// clock (internal/vtime): link-delay sleeps, retry backoff and
	// per-attempt timeouts become scheduler events, so a measured phase that
	// "sleeps" hours of simulated latency completes in seconds of wall time
	// with exact, jitter-free latency percentiles.
	// Experiment phases that touch a virtual deployment must run inside
	// Deployment.Run.
	VirtualTime bool
}

func (c Config) fillDefaults() Config {
	if c.Peers == 0 {
		c.Peers = 64
	}
	if c.TopK == 0 {
		c.TopK = 20
	}
	if c.LearningIterations == 0 {
		c.LearningIterations = 3
	}
	if c.TrainFraction == 0 {
		c.TrainFraction = 0.5
	}
	c.Core = c.Core.FillDefaults()
	return c
}

// Env is the shared experimental environment: collection, centralized
// baseline, generated query set, and train/test split.
type Env struct {
	Cfg     Config
	Col     *corpus.Collection
	Central *central.System
	Gen     *querygen.Generated
	Train   []*corpus.Query
	Test    []*corpus.Query
}

// Setup builds the environment: synthesize the collection, index it
// centrally, run the query generator, and split queries randomly into equal
// training and testing sets ("The queries are randomly assigned to the
// groups", §6.2).
func Setup(cfg Config) (*Env, error) {
	cfg = cfg.fillDefaults()
	col := cfg.Collection
	if col == nil {
		var err error
		col, err = corpus.Synthesize(cfg.Corpus)
		if err != nil {
			return nil, fmt.Errorf("eval: corpus: %w", err)
		}
	}
	sys := central.New(col.Corpus)
	var gen *querygen.Generated
	if cfg.SkipQueryGen {
		// The collection's queries are already the full set; each query is
		// its own origin.
		gen = &querygen.Generated{Origin: make(map[string]string, len(col.Queries))}
		gen.Queries = append(gen.Queries, col.Queries...)
		for _, q := range col.Queries {
			gen.Origin[q.ID] = q.ID
		}
	} else {
		var err error
		gen, err = querygen.Generate(col, sys, cfg.QueryGen)
		if err != nil {
			return nil, fmt.Errorf("eval: querygen: %w", err)
		}
	}
	env := &Env{Cfg: cfg, Col: col, Central: sys, Gen: gen}

	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(gen.Queries))
	cut := int(cfg.TrainFraction * float64(len(gen.Queries)))
	for i, pi := range perm {
		q := gen.Queries[pi]
		if i < cut {
			env.Train = append(env.Train, q)
		} else {
			env.Test = append(env.Test, q)
		}
	}
	return env, nil
}

// Deployment is one running SPRITE network over the environment's corpus.
type Deployment struct {
	Env *Env
	// Sim is the simulated transport (kept directly for its accounting and
	// fault-injection capabilities).
	Sim  *simnet.Network
	Ring *chord.Ring
	Net  *core.Network
	// Clk is the deployment's virtual clock (nil unless Config.VirtualTime):
	// the transport, retry layer, and fan-out engine all schedule on
	// it. Wrap deployment-touching phases in Run so the driving goroutine
	// participates in virtual scheduling.
	Clk   *vtime.Sim
	addrs []simnet.Addr
	// issue counts round-robin query issuers so load spreads across peers.
	issue int
}

// NewDeployment builds a fresh simulated network + Chord ring + SPRITE
// network with the given core configuration. Documents are NOT shared yet;
// call ShareAll after inserting the training queries, per the §6.2 order.
func (e *Env) NewDeployment(coreCfg core.Config) (*Deployment, error) {
	var snetOpts []simnet.Option
	if e.Cfg.Telemetry != nil {
		snetOpts = append(snetOpts, simnet.WithTelemetry(e.Cfg.Telemetry))
	}
	if e.Cfg.LinkDelay > 0 {
		snetOpts = append(snetOpts, simnet.WithLatency(simnet.UniformLatency(e.Cfg.LinkDelay, e.Cfg.LinkDelay)))
	}
	var clk *vtime.Sim
	if e.Cfg.VirtualTime {
		clk = vtime.NewSim()
		snetOpts = append(snetOpts, simnet.WithClock(clk))
		coreCfg.Clock = clk
	}
	snet := simnet.New(e.Cfg.Seed+1, snetOpts...)
	ring := chord.NewRing(snet, chord.Config{Telemetry: e.Cfg.Telemetry})
	if _, err := ring.AddNodes("peer", e.Cfg.Peers); err != nil {
		return nil, fmt.Errorf("eval: ring: %w", err)
	}
	ring.Build()
	coreCfg.Telemetry = e.Cfg.Telemetry
	n, err := core.NewNetwork(ring, coreCfg)
	if err != nil {
		return nil, fmt.Errorf("eval: network: %w", err)
	}
	d := &Deployment{Env: e, Sim: snet, Ring: ring, Net: n, Clk: clk}
	for _, p := range n.Peers() {
		d.addrs = append(d.addrs, p.Addr())
	}
	return d, nil
}

// Run executes fn with the calling goroutine registered on the deployment's
// virtual clock, so every virtual wait inside (slept link latency, backoff,
// timeouts) is scheduled deterministically. Under the wall clock (Clk nil)
// it simply calls fn. All phases that drive a virtual deployment — training,
// sharing, learning, measuring — must go through here.
func (d *Deployment) Run(fn func()) {
	if d.Clk == nil {
		fn()
		return
	}
	d.Clk.Run(fn)
}

// Clock returns the deployment's clock: the virtual clock when one is
// installed, the wall clock otherwise. Never nil.
func (d *Deployment) Clock() vtime.Clock {
	if d.Clk == nil {
		return vtime.Wall
	}
	return d.Clk
}

// nextIssuer returns the next query-issuing peer, round-robin.
func (d *Deployment) nextIssuer() simnet.Addr {
	a := d.addrs[d.issue%len(d.addrs)]
	d.issue++
	return a
}

// InsertQueries caches each query's keywords in the network (the training
// insertion of §6.2), issuing from round-robin peers.
func (d *Deployment) InsertQueries(queries []*corpus.Query) error {
	for _, q := range queries {
		if err := d.Net.InsertQueryCtx(context.Background(), d.nextIssuer(), q.Terms); err != nil {
			return fmt.Errorf("eval: insert query %s: %w", q.ID, err)
		}
	}
	return nil
}

// InsertZipfQueryStream inserts volume queries drawn from the given set with
// Zipf-distributed popularity (the paper's "w-zipf" workload, slope 0.5:
// "the frequency of a query is roughly inversely proportional to the
// popularity of the query", §6.3).
func (d *Deployment) InsertZipfQueryStream(queries []*corpus.Query, volume int, slope float64, seed int64) error {
	for _, r := range zipfRanks(len(queries), volume, slope, seed) {
		q := queries[r]
		if err := d.Net.InsertQueryCtx(context.Background(), d.nextIssuer(), q.Terms); err != nil {
			return fmt.Errorf("eval: zipf insert %s: %w", q.ID, err)
		}
	}
	return nil
}

// zipfRanks samples volume ranks in [0, n) with Zipf-distributed popularity
// by inverse-CDF sampling. The draw sequence (one rng.Float64 per sample) is
// part of the reproducibility contract: InsertZipfQueryStream has always
// consumed randomness this way, and the w-zipf figures depend on it.
func zipfRanks(n, volume int, slope float64, seed int64) []int {
	if n == 0 || volume <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), slope)
		cum[r] = total
	}
	out := make([]int, volume)
	for i := range out {
		x := rng.Float64() * total
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] >= x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[i] = lo
	}
	return out
}

// ShareAll distributes every corpus document round-robin across peers and
// publishes its initial index terms.
func (d *Deployment) ShareAll() error {
	for i, doc := range d.Env.Col.Corpus.Docs() {
		owner := d.addrs[i%len(d.addrs)]
		if err := d.Net.ShareCtx(context.Background(), owner, doc); err != nil {
			return fmt.Errorf("eval: share %s: %w", doc.ID, err)
		}
	}
	return nil
}

// Learn runs the given number of learning iterations over all documents.
func (d *Deployment) Learn(iterations int) error {
	for i := 0; i < iterations; i++ {
		if _, err := d.Net.LearnAllCtx(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// Searcher is any system that can answer a keyword query with a top-k ranked
// list; the three systems under comparison all satisfy it.
type Searcher func(terms []string, k int) ir.RankedList

// SpriteSearcher returns a non-perturbing searcher over the deployment
// (queries are processed but not cached, so measurement does not train the
// system being measured). A degraded query is scored on the ranking over the
// terms it reached (§7).
func (d *Deployment) SpriteSearcher() Searcher {
	return func(terms []string, k int) ir.RankedList {
		rl, err := d.Net.ProbeCtx(context.Background(), d.nextIssuer(), terms, k)
		if err != nil && !errors.Is(err, core.ErrPartialResults) {
			return nil
		}
		return rl
	}
}

// CentralSearcher adapts the centralized baseline.
func (e *Env) CentralSearcher() Searcher {
	return e.Central.Search
}

// ESearchSearcher builds the static top-k baseline at the given per-document
// term budget and adapts it.
func (e *Env) ESearchSearcher(terms int) (Searcher, error) {
	s, err := esearch.New(e.Col.Corpus, terms, e.Cfg.Core.SurrogateN)
	if err != nil {
		return nil, err
	}
	return s.Search, nil
}

// MeasureAt evaluates a searcher over the query set at several answer-list
// depths in a single pass: each query is searched once at the deepest K and
// the metrics are computed on each prefix.
func MeasureAt(s Searcher, queries []*corpus.Query, ks []int) map[int]ir.Metrics {
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	perK := make(map[int][]ir.Metrics, len(ks))
	for _, q := range queries {
		rl := s(q.Terms, maxK)
		for _, k := range ks {
			perK[k] = append(perK[k], ir.Evaluate(rl.Top(k).Docs(), q.Relevant))
		}
	}
	out := make(map[int]ir.Metrics, len(ks))
	for _, k := range ks {
		out[k] = ir.MeanMetrics(perK[k])
	}
	return out
}

// Measure evaluates a searcher at a single depth.
func Measure(s Searcher, queries []*corpus.Query, k int) ir.Metrics {
	return MeasureAt(s, queries, []int{k})[k]
}
