// Command bench is the repository's benchmark: four count-driven workloads
// over deployments assembled from the module's own packages, twelve
// end-to-end metrics, and — in a separate traced pass — per-layer metrics
// measured from outside the module. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

type options struct {
	Workload string
	// Seed drives the traffic: Zipf draws, issuer rotation, link delays,
	// warm-up stream. The text under it — corpus, judged queries, train/test
	// split — is the standing collection (collectionSeed).
	Seed    int64
	Seconds int
	Trace   int
	Scale   float64
	AA      int
	Seed2   int64
}

func main() {
	var o options
	flag.StringVar(&o.Workload, "workload", "all", "workload to run: route, postings, mixed, tcp, or all")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the traffic: Zipf draws, issuer rotation, link delays, warm-up stream")
	flag.IntVar(&o.Seconds, "seconds", referenceSeconds, "length of the timed phase on the reference host; sets its fixed operation count")
	flag.IntVar(&o.Trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass and the layer probes, spans written to .bench_build/trace-<workload>.json")
	flag.Float64Var(&o.Scale, "scale", 1, "multiplies deployment sizes and operation counts (smoke tests use 0.01)")
	flag.IntVar(&o.AA, "aa", 0, "A/A check: run two interleaved sets of N passes of this build and compare them")
	flag.Int64Var(&o.Seed2, "seed2", 0, "with -aa: seed of the second set (default: the same seed)")
	flag.Parse()
	if flag.NArg() > 0 || o.Seconds < 1 || o.Scale <= 0 || o.Trace < 0 || o.Trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	names := []string{o.Workload}
	if o.Workload == "all" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	if o.AA > 0 {
		os.Exit(runAA(o, names))
	}
	ok := true
	for _, name := range names {
		s, err := specByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		rec, err := runWorkload(s, o)
		if err == nil {
			err = rec.print(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload's result. Its last printed line is the contract's
// JSON object; everything above it is for people.
type record struct {
	Workload string
	Env      environment
	Correct  bool
	// Attempted and Failed count operations of the measured pass plus the
	// quality pass's probes; an error, a partial result or an output-gate
	// breach is a failure.
	Attempted, Failed int
	Metrics           map[string]metric
	// Notes are the human-readable lines: sample counts, rank hash, sum
	// checks, what crossed loopback.
	Notes    []string
	Breaches []string
}

func (r *record) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

func (r *record) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *record) print(w io.Writer) error {
	fmt.Fprintf(w, "== %s ==\n", r.Workload)
	env, err := json.Marshal(r.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %v %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	for _, b := range r.Breaches {
		fmt.Fprintln(w, "BREACH", b)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", r.Attempted, r.Failed)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil { // a NaN or Inf metric: never print half a result
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// runWorkload runs one workload in the mode -trace selects.
func runWorkload(s spec, o options) (*record, error) {
	if s.WriteEvery > 0 && s.Clients > 1 {
		return nil, fmt.Errorf("writes need a single client: the write cycle is only failure-free in order")
	}
	s.Clients = min(s.Clients, runtime.NumCPU()) // never more client goroutines than CPUs
	s = s.sized(o.Scale)
	rec := &record{Workload: s.Name, Metrics: make(map[string]metric)}
	var err error
	if o.Trace == 0 {
		err = runEndToEnd(s, o, rec)
	} else {
		err = runTraced(s, o, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0 && len(rec.Breaches) == 0
	return rec, nil
}

// runEndToEnd is the -trace 0 mode: tracing off, the workload's own client
// count and Parallelism, every end-to-end metric.
func runEndToEnd(s spec, o options, rec *record) error {
	cal, err := newCalib()
	if err != nil {
		return err
	}
	defer cal.close()
	var d *deployment
	var setups []float64
	for i := 0; i < setupsPerRun; i++ {
		if d != nil {
			d.close()
			d = nil
			runtime.GC()
		}
		var err error
		if d, err = build(s, o, false); err != nil {
			return err
		}
		setups = append(setups, d.setup.TotalS)
	}
	defer d.close()

	fillWall, err := d.fillHistories(o.Seed, scaled(s.Fill, o.Scale, 0))
	if err != nil {
		return fmt.Errorf("history fill: %w", err)
	}
	queries := s.queries(o.Seconds, o.Scale)
	ops := genOps(o.Seed, queries, len(d.test), len(d.addrs), s.Docs, s.WriteEvery)
	rec.Env = newEnvironment(s, o, ops)
	g := &gate{d: d}
	p := d.drive(ops, s.Clients, s.sliceOps(len(ops)), cal, g)
	if cal.err != nil {
		return fmt.Errorf("calibration: %w", cal.err)
	}
	ix := d.net.IndexStats()
	q := d.quality(g)

	docs := float64(s.Docs)
	rec.set("setup_s", median(setups), "s")
	qps, p50, p90 := p.calibrated()
	if s.Virtual { // latencies on the virtual clock are exact: nothing to calibrate
		p50, p90 = us(percentile(p.Latencies, 50)), us(percentile(p.Latencies, 90))
	}
	rec.set("query_qps", qps, "1/s")
	rec.set("query_p50_us", p50, "us")
	rec.set("query_p90_us", p90, "us")
	rec.set("query_msgs", float64(p.Traffic.calls())/float64(p.Queries), "msgs/query")
	rec.set("query_bytes", float64(p.Traffic.bytes())/float64(p.Queries), "B/query")
	rec.set("share_msgs", float64(d.setup.Share.calls())/docs, "msgs/doc")
	rec.set("learn_msgs", float64(d.setup.Learn.calls())/(docs*learnIters), "msgs/doc/iter")
	rec.set("precision_ratio", q.PrecisionRatio, "ratio")
	rec.set("recall_ratio", q.RecallRatio, "ratio")
	rec.set("index_bytes_per_posting", ix.BytesPerPosting(), "B")
	rec.set("mem_heap_mb", float64(p.MemAfter.HeapAlloc)/(1<<20), "MB")

	rec.Attempted = len(ops) + q.Probed
	rec.Failed = p.Failed + q.Failed
	clock := "wall"
	if s.Virtual {
		clock = "virtual"
	}
	rec.notef("timed phase: %d queries + %d writes in %.2f s wall, %d client(s), closed loop, %d slices of %d operations", p.Queries, p.Writes, p.Wall.Seconds(), s.Clients, len(p.Slices), s.sliceOps(len(ops)))
	rec.notef("as measured on the wall clock, uncalibrated: %.1f queries/s, p50 %.3f us, p90 %.3f us", p.qps(), us(percentile(p.Latencies, 50)), us(percentile(p.Latencies, 90)))
	rec.notef("calibration kernel: median reading %.3f ms over the phase, reference %.3f ms: factor %.4f", p.kernelMedian().Seconds()*1e3, calibRef.Seconds()*1e3, calibFactor(p.kernelMedian()))
	rec.notef("latency samples %d (%s clock), %d beyond p90; %d per slice", len(p.Latencies), clock, len(p.Latencies)-len(p.Latencies)*9/10, p.Slices[0].Queries)
	rec.notef("setup_s per set-up %v; history fill after the last %.3f s", setups, fillWall.Seconds())
	rec.notef("last set-up: synth %.3f s, central %.3f s, ring %.3f s, share %.3f s, learn %.3f s",
		d.setup.SynthS, d.setup.CentralS, d.setup.RingBuildS, d.setup.ShareS, d.setup.LearnS)
	rec.notef("rank_hash %s", q.RankHash)
	if s.TCP {
		rec.notef("traffic crossed loopback sockets, not a link: latency is CPU and kernel time only")
	}
	if q.PrecisionRatio < precisionFloor {
		g.breach("precision_ratio %.4f below the %.2f sanity floor", q.PrecisionRatio, precisionFloor)
	}
	want, ok, err := expectedHash(s.Name, o)
	if err != nil {
		return err
	}
	if ok && want != q.RankHash {
		g.breach("rank_hash %s differs from expected.json's %s", q.RankHash, want)
	}
	rec.Breaches = g.breaches
	return nil
}

// precisionFloor is a sanity bound, not a target: a deployment that learned
// anything at all stays well above it.
const precisionFloor = 0.7
