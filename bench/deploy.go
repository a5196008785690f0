package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/central"
	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/querygen"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/transport"
	"github.com/spritedht/sprite/internal/vtime"
)

// setupStats is what one set-up measured about itself.
type setupStats struct {
	TotalS     float64            // corpus synthesis … end of warm-up
	SynthS     float64            // corpus.Synthesize + querygen.Generate + split
	CentralS   float64            // central.New
	RingBuildS float64            // Ring.AddNodes + Build
	ShareS     float64            // share-all wall
	LearnS     float64            // the learning iterations' wall
	Share      traffic            // messages during share-all
	Learn      traffic            // messages during the learning iterations
	Spans      map[string]spanAgg // traced set-ups only: insert, share, learn_all and below
}

// deployment is one running SPRITE network assembled from the module's own
// packages the way sprite.New and eval.NewDeployment do it:
// corpus → central → querygen → simnet|transport → chord → core.
type deployment struct {
	spec    spec
	col     *corpus.Collection
	central *central.System
	train   []*corpus.Query
	test    []*corpus.Query
	clk     *vtime.Sim // nil on the wall clock
	sim     *simnet.Network
	tcp     *transport.Transport
	meter   *meter
	ring    *chord.Ring
	net     *core.Network
	addrs   []simnet.Addr // peer i's logical address
	tracer  *tracer       // nil unless built for the traced pass
	setup   setupStats
}

// run executes fn registered on the deployment's virtual clock, or plainly
// when it runs on the wall clock.
func (d *deployment) run(fn func()) {
	if d.clk == nil {
		fn()
		return
	}
	d.clk.Run(fn)
}

// now reads the deployment's clock.
func (d *deployment) now() time.Time {
	if d.clk == nil {
		return time.Now()
	}
	return d.clk.Now()
}

// sleepLinks makes simulated link delays elapse on the deployment clock
// (route only); set-up runs with them accounted but not slept.
func (d *deployment) sleepLinks(on bool) {
	if d.spec.Virtual {
		d.sim.SetSleepLatency(on)
	}
}

func (d *deployment) close() {
	if d.tcp != nil {
		d.tcp.Close()
	}
}

func (d *deployment) owner(doc int) simnet.Addr { return d.addrs[doc%len(d.addrs)] }

// reserveLoopback returns n free loopback socket addresses.
func reserveLoopback(n int) ([]simnet.Addr, error) {
	out := make([]simnet.Addr, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback address: %w", err)
		}
		out[i] = simnet.Addr(ln.Addr().String())
		defer ln.Close() // hold every reservation until all are made, so no two coincide
	}
	return out, nil
}

// build assembles and trains a deployment: synthesize the collection, index
// it centrally, generate and split the queries, build the ring, insert the
// training queries, share every document, run the learning iterations and
// warm up. The collection — documents, judged queries and their train/test
// split — derives from collectionSeed and plays the part TREC9 plays in the
// paper: one fixed body of text under every run. The traffic — link delays
// and the warm-up stream here, the timed stream in genOps — derives from
// o.Seed. With traced set, the insert, share and learn phases are traced
// (their spans land in setup.Spans) and d.tracer is ready for the caller's
// traced pass.
func build(s spec, o options, traced bool) (*deployment, error) {
	seed, warmup := o.Seed, scaled(warmupQueries, o.Scale, 50)
	start := time.Now()
	d := &deployment{spec: s}

	col, err := corpus.Synthesize(corpus.SynthConfig{NumDocs: s.Docs, Seed: subSeed(collectionSeed, stageCorpus)})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	d.col = col
	d.setup.SynthS = time.Since(start).Seconds()

	t := time.Now()
	d.central = central.New(col.Corpus)
	d.setup.CentralS = time.Since(t).Seconds()

	t = time.Now()
	gen, err := querygen.Generate(col, d.central, querygen.Config{Seed: subSeed(collectionSeed, stageQueryGen)})
	if err != nil {
		return nil, fmt.Errorf("querygen: %w", err)
	}
	// "The queries are randomly assigned to the groups" (§6.2): half train,
	// half held out for the timed stream and the quality pass.
	perm := rand.New(rand.NewSource(subSeed(collectionSeed, stageSplit))).Perm(len(gen.Queries))
	for i, pi := range perm {
		if i < len(perm)/2 {
			d.train = append(d.train, gen.Queries[pi])
		} else {
			d.test = append(d.test, gen.Queries[pi])
		}
	}
	d.setup.SynthS += time.Since(t).Seconds()

	coreCfg := core.Config{Parallelism: s.Parallelism}
	if s.Caches {
		coreCfg.Cache = core.CacheConfig{Enabled: true, PostingsTTL: cacheTTL, ResultTTL: cacheTTL}
	}
	var inner simnet.Transport
	switch {
	case s.TCP:
		// Neither the idle reaper nor the per-call timeout may fire inside a
		// run: a stalled host must slow an operation down, not fail it.
		d.tcp = transport.New(transport.WithIdleTimeout(cacheTTL), transport.WithCallTimeout(time.Minute))
		inner = d.tcp
	case s.Virtual:
		d.clk = vtime.NewSim()
		coreCfg.Clock = d.clk
		d.sim = simnet.New(subSeed(seed, stageLink), simnet.WithLeanStats(), simnet.WithClock(d.clk),
			simnet.WithLatency(simnet.UniformLatency(linkDelayMin, linkDelayMax)))
		inner = d.sim
	default:
		d.sim = simnet.New(subSeed(seed, stageLink), simnet.WithLeanStats())
		inner = d.sim
	}
	d.meter = newMeter(inner)
	d.addrs = make([]simnet.Addr, s.Peers)
	for i := range d.addrs {
		d.addrs[i] = simnet.Addr(fmt.Sprintf("peer%d", i))
	}
	if s.TCP {
		socks, err := reserveLoopback(s.Peers)
		if err != nil {
			return nil, err
		}
		for i, a := range d.addrs {
			d.meter.mapAddr(a, socks[i])
		}
	}

	t = time.Now()
	d.ring = chord.NewRing(d.meter, chord.Config{})
	if _, err := d.ring.AddNodes("peer", s.Peers); err != nil {
		d.close()
		return nil, fmt.Errorf("ring: %w", err)
	}
	d.ring.Build()
	d.setup.RingBuildS = time.Since(t).Seconds()
	if d.tcp != nil {
		if err := d.tcp.LastError(); err != nil {
			d.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	if d.net, err = core.NewNetwork(d.ring, coreCfg); err != nil {
		d.close()
		return nil, fmt.Errorf("network: %w", err)
	}

	if traced {
		d.tracer = newTracer(d.clk)
	}
	d.run(func() { err = d.prepare(seed, warmup) })
	if err != nil {
		d.close()
		return nil, err
	}
	runtime.GC()
	d.setup.TotalS = time.Since(start).Seconds()
	return d, nil
}

// prepare runs the §6.2 order — insert the training queries, share every
// document, learn — and then the warm-up, all on the deployment's clock.
func (d *deployment) prepare(seed int64, warmup int) error {
	ctx, trc := context.Background(), d.tracer
	d.meter.tr.Store(trc)
	for i, q := range d.train {
		id := trc.begin("insert")
		err := d.net.InsertQueryCtx(ctx, d.addrs[i%len(d.addrs)], q.Terms)
		trc.end(id)
		if err != nil {
			return fmt.Errorf("insert %s: %w", q.ID, err)
		}
	}

	before, t := d.meter.snapshot(), time.Now()
	for i, doc := range d.col.Corpus.Docs() {
		id := trc.begin("share")
		err := d.net.ShareCtx(ctx, d.owner(i), doc)
		trc.end(id)
		if err != nil {
			return fmt.Errorf("share %s: %w", doc.ID, err)
		}
	}
	afterShare := d.meter.snapshot()
	d.setup.ShareS, d.setup.Share = time.Since(t).Seconds(), afterShare.sub(before)

	t = time.Now()
	for i := 0; i < learnIters; i++ {
		id := trc.begin("learn_all")
		_, err := d.net.LearnAllCtx(ctx)
		trc.end(id)
		if err != nil {
			return fmt.Errorf("learn: %w", err)
		}
	}
	d.setup.LearnS, d.setup.Learn = time.Since(t).Seconds(), d.meter.snapshot().sub(afterShare)
	if trc != nil {
		d.setup.Spans, _ = trc.take()
	}
	d.meter.tr.Store(nil)

	// Warm-up: non-recording queries over the same Zipf stream shape, so pools,
	// connections and allocator size classes are in their steady state and the
	// learning state is untouched.
	d.sleepLinks(true)
	defer d.sleepLinks(false)
	for _, o := range genOps(subSeed(seed, stageWarmup), warmup, len(d.test), len(d.addrs), 1, 0) {
		if _, err := d.net.ProbeCtx(ctx, d.addrs[o.issuer], d.test[o.arg].Terms, topK); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// fillHistories brings the indexing peers' query histories to the state a
// deployment that has been serving this traffic is in: it inserts n queries
// Zipf-drawn from the held-out set, from the workload's client count of
// goroutines, so that the peers owning the popular terms sit at HistoryCap and
// every further recording evicts. Without it the timed phase starts on empty
// histories and slows down as they fill (postings: 14 000 queries/s falling to
// 7 000 over its first fifth), and no stretch of it is comparable with
// another. It runs once, on the deployment that is measured, after set-up:
// it is the benchmark's conditioning, not something a deployment pays.
func (d *deployment) fillHistories(seed int64, n int) (time.Duration, error) {
	ops := genOps(subSeed(seed, stageFill), n, len(d.test), len(d.addrs), 1, 0)
	errs := make([]error, d.spec.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ops) && errs[c] == nil; i += len(errs) {
				errs[c] = d.net.InsertQueryCtx(context.Background(), d.addrs[ops[i].issuer], d.test[ops[i].arg].Terms)
			}
		}()
	}
	wg.Wait()
	runtime.GC()
	return time.Since(start), errors.Join(errs...)
}
