package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/ir"
)

// gate is the output check applied to every ranked list the benchmark sees:
// score-descending, at most k long, duplicate-free, every hit contains a
// query term (checked against the corpus, not against the system) and is
// shared by a live owner at that moment. It is safe for concurrent use; the
// first few breaches are kept verbatim for the report.
type gate struct {
	d *deployment

	mu       sync.Mutex
	breaches []string
}

func (g *gate) breach(format string, args ...any) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.breaches) < 10 {
		g.breaches = append(g.breaches, fmt.Sprintf(format, args...))
	}
	return false
}

// check reports whether rl is a valid answer to q.
func (g *gate) check(q *corpus.Query, rl ir.RankedList) bool {
	if len(rl) > topK {
		return g.breach("%s: %d hits for k=%d", q.ID, len(rl), topK)
	}
	for i, hit := range rl {
		if i > 0 && hit.Score > rl[i-1].Score {
			return g.breach("%s: scores ascend at rank %d", q.ID, i+1)
		}
		for _, prev := range rl[:i] {
			if prev.Doc == hit.Doc {
				return g.breach("%s: %s returned twice", q.ID, hit.Doc)
			}
		}
		doc, ok := g.d.col.Corpus.Doc(hit.Doc)
		if !ok {
			return g.breach("%s: unknown document %s", q.ID, hit.Doc)
		}
		match := false
		for _, t := range q.Terms {
			if doc.Contains(t) {
				match = true
				break
			}
		}
		if !match {
			return g.breach("%s: %s contains no query term", q.ID, hit.Doc)
		}
		owner, shared := g.d.net.Owner(hit.Doc)
		if !shared || !g.d.meter.Alive(owner.Addr()) {
			return g.breach("%s: %s has no live owner", q.ID, hit.Doc)
		}
	}
	return true
}

// phase is what one pass over an operation stream measured.
type phase struct {
	// Wall is the sum of the slices' wall times; the calibration readings
	// between them belong to none.
	Wall      time.Duration
	Latencies []int64 // per query, ns on the deployment clock, ascending
	Queries   int
	Writes    int
	Failed    int
	Traffic   traffic
	// WriteWall and WriteN split the writes by kind (Unshare, Share, LearnDoc).
	WriteWall [3]time.Duration
	WriteN    [3]int
	// Mem brackets the pass: before it starts and after the forced GC at its
	// end.
	MemBefore, MemAfter runtime.MemStats
	Postings, Results   cache.Stats // cache counter deltas over the pass
	// Slices cuts the pass into stretches of sliceOps consecutive operations,
	// in stream order; the last may be shorter.
	Slices []slice
}

// slice is one stretch of the pass: how long it took and what its queries'
// latencies were.
type slice struct {
	Queries  int
	Wall     time.Duration
	P50, P90 int64 // of this slice's query latencies, ns on the deployment clock
	// K is the mean of the calibration kernel's readings just before and just
	// after the slice (calibRef when the pass is not calibrated).
	K time.Duration
}

func (p *phase) qps() float64 { return float64(p.Queries) / p.Wall.Seconds() }

// kernelMedian is the median kernel reading over the pass's slices.
func (p *phase) kernelMedian() time.Duration {
	ks := make([]float64, len(p.Slices))
	for i, sl := range p.Slices {
		ks[i] = float64(sl.K)
	}
	return time.Duration(median(ks))
}

// calibrated returns the pass's throughput and latency percentiles with the
// machine's state taken out: each is the median over the full slices of the
// slice's own value — which sets aside the slices a collection or a
// neighbour's burst landed in — scaled by the calibration factor of the
// pass's median kernel reading.
func (p *phase) calibrated() (qps, p50us, p90us float64) {
	var rate, p50, p90 []float64
	for _, sl := range p.Slices {
		if sl.Queries != p.Slices[0].Queries { // a last, shorter slice
			continue
		}
		rate = append(rate, float64(sl.Queries)/sl.Wall.Seconds())
		p50 = append(p50, us(sl.P50))
		p90 = append(p90, us(sl.P90))
	}
	f := calibFactor(p.kernelMedian())
	return median(rate) * f, median(p50) / f, median(p90) / f
}

// us converts a deployment-clock latency to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

func cacheDelta(after, before cache.Stats) cache.Stats {
	after.Hits -= before.Hits
	after.Misses -= before.Misses
	after.Invalidated -= before.Invalidated
	after.Stores -= before.Stores
	return after
}

// drive replays ops as a closed loop — every client sends its next operation
// only when the previous one completed — from the given number of client
// goroutines (client c takes operations c, c+clients, …), one slice of
// sliceOps operations at a time: at a slice's end every client has stopped,
// and cal, when given, takes a reading before the next slice starts. Nothing
// in here reads the wall clock to make a decision: the stream is fixed before
// it starts, so every count it produces is a function of the seed.
func (d *deployment) drive(ops []op, clients, sliceOps int, cal *calib, g *gate) *phase {
	p := &phase{}
	lats := make([][]int64, clients)
	for c := range lats {
		lats[c] = make([]int64, 0, len(ops)/clients+1)
	}
	p.Slices = make([]slice, 0, len(ops)/sliceOps+1)
	failed := make([]int, clients)
	docs := d.col.Corpus.Docs()
	ctx := context.Background()
	trc := d.meter.tr.Load()

	// client runs client c's share of ops[from:to].
	client := func(c, from, to int) {
		for i := from + (c-from%clients+clients)%clients; i < to; i += clients {
			o := ops[i]
			if o.kind == opQuery {
				q := d.test[o.arg]
				id := trc.begin("query")
				t0 := d.now()
				rl, err := d.net.SearchCtx(ctx, d.addrs[o.issuer], q.Terms, topK)
				lats[c] = append(lats[c], int64(d.now().Sub(t0)))
				trc.end(id)
				if err != nil || !g.check(q, rl) {
					if err != nil {
						g.breach("%s: %v", q.ID, err)
					}
					failed[c]++
				}
				continue
			}
			doc := docs[o.arg]
			id := trc.begin(writeSpan[o.kind-opUnshare])
			t0 := time.Now()
			var err error
			switch o.kind {
			case opUnshare:
				err = d.net.Unshare(doc.ID)
			case opShare:
				err = d.net.ShareCtx(ctx, d.owner(int(o.arg)), doc)
			case opLearn:
				_, err = d.net.LearnDocCtx(ctx, doc.ID)
			}
			p.WriteWall[o.kind-opUnshare] += time.Since(t0)
			p.WriteN[o.kind-opUnshare]++
			trc.end(id)
			if err != nil {
				g.breach("write %d on %s: %v", o.kind, doc.ID, err)
				failed[c]++
			}
		}
	}

	pc0, rc0 := d.net.PostingsCacheStats(), d.net.ResultCacheStats()
	before := d.meter.snapshot()
	d.sleepLinks(true)
	runtime.ReadMemStats(&p.MemBefore)
	d.run(func() {
		var in []int64
		k0 := calibRef
		if cal != nil {
			k0 = cal.sample()
		}
		for from := 0; from < len(ops); from += sliceOps {
			to := min(from+sliceOps, len(ops))
			n0 := make([]int, clients)
			for c := range lats {
				n0[c] = len(lats[c])
			}
			t0 := time.Now()
			if clients == 1 {
				client(0, from, to)
			} else {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						client(c, from, to)
					}()
				}
				wg.Wait()
			}
			sl := slice{Wall: time.Since(t0)}
			p.Wall += sl.Wall
			in = in[:0]
			for c := range lats {
				in = append(in, lats[c][n0[c]:]...)
			}
			sl.Queries = len(in)
			sort.Slice(in, func(a, b int) bool { return in[a] < in[b] })
			sl.P50, sl.P90 = percentile(in, 50), percentile(in, 90)
			k1 := calibRef
			if cal != nil {
				k1 = cal.sample()
			}
			sl.K, k0 = (k0+k1)/2, k1
			p.Slices = append(p.Slices, sl)
		}
	})
	d.sleepLinks(false)
	p.Traffic = d.meter.snapshot().sub(before)
	runtime.GC()
	runtime.ReadMemStats(&p.MemAfter)
	p.Postings = cacheDelta(d.net.PostingsCacheStats(), pc0)
	p.Results = cacheDelta(d.net.ResultCacheStats(), rc0)

	for c := range lats {
		p.Latencies = append(p.Latencies, lats[c]...)
		p.Failed += failed[c]
	}
	sort.Slice(p.Latencies, func(i, j int) bool { return p.Latencies[i] < p.Latencies[j] })
	p.Queries = len(p.Latencies)
	p.Writes = len(ops) - p.Queries
	return p
}

var writeSpan = [3]string{"write.unshare", "write.share", "write.learn"}

// quality is the pass after the timed phase: every held-out query once,
// through Probe so the measurement does not train the system, judged against
// the centralized system over the same corpus.
type quality struct {
	PrecisionRatio, RecallRatio float64
	RankHash                    string
	Probed, Failed              int
}

func (d *deployment) quality(g *gate) quality {
	var out quality
	var sys, base []ir.Metrics
	h := sha256.New()
	d.run(func() {
		for i, q := range d.test {
			rl, err := d.net.ProbeCtx(context.Background(), d.addrs[i%len(d.addrs)], q.Terms, topK)
			out.Probed++
			if err != nil || !g.check(q, rl) {
				if err != nil {
					g.breach("probe %s: %v", q.ID, err)
				}
				out.Failed++
			}
			fmt.Fprintf(h, "%s:", q.ID)
			for _, hit := range rl {
				fmt.Fprintf(h, "%s=%s;", hit.Doc, strconv.FormatFloat(hit.Score, 'g', -1, 64))
			}
			sys = append(sys, ir.Evaluate(rl.Docs(), q.Relevant))
			base = append(base, ir.Evaluate(d.central.Search(q.Terms, topK).Docs(), q.Relevant))
		}
	})
	ratio := ir.Ratio(ir.MeanMetrics(sys), ir.MeanMetrics(base))
	out.PrecisionRatio, out.RecallRatio = ratio.Precision, ratio.Recall
	out.RankHash = hex.EncodeToString(h.Sum(nil))
	return out
}
