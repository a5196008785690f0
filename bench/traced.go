package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runTraced is the -trace 1 mode. It builds the deployment twice from the
// same seed, both times with one client at Parallelism 1 so that spans nest
// as a stack and the tracer is the only difference between the two: the
// first replays a fifth of the timed phase untraced (the reference for
// harness.trace_overhead_ratio, and the source of every per-layer number
// that needs no span), the second replays the same operations traced. The
// layer probes then replay inputs captured from that deployment.
func runTraced(s spec, o options, rec *record) error {
	budget := max(time.Duration(float64(time.Second)*min(o.Scale, 1)), 5*time.Millisecond)
	ts := s
	ts.Parallelism, ts.Clients = 1, 1

	cal, err := newCalib()
	if err != nil {
		return err
	}
	defer cal.close()
	ref, err := build(ts, o, false)
	if err != nil {
		return err
	}
	if _, err := ref.fillHistories(o.Seed, scaled(s.Fill, o.Scale, 0)); err != nil {
		return fmt.Errorf("history fill: %w", err)
	}
	queries := max(s.queries(o.Seconds, o.Scale)/tracedFraction, 50)
	ops := genOps(o.Seed, queries, len(ref.test), len(ref.addrs), s.Docs, s.WriteEvery)
	rec.Env = newEnvironment(ts, o, ops)
	refGate := &gate{d: ref}
	pRef := ref.drive(ops, 1, ts.sliceOps(len(ops)), cal, refGate)
	refSetup := ref.setup
	ref.close()
	ref = nil
	runtime.GC()

	d, err := build(ts, o, true)
	if err != nil {
		return err
	}
	defer d.close()
	if _, err := d.fillHistories(o.Seed, scaled(s.Fill, o.Scale, 0)); err != nil {
		return fmt.Errorf("history fill: %w", err)
	}
	g := &gate{d: d}
	d.meter.tr.Store(d.tracer)
	p := d.drive(ops, 1, ts.sliceOps(len(ops)), cal, g)
	d.meter.tr.Store(nil)
	agg, kept := d.tracer.take()
	q := d.quality(g)
	rec.Attempted = 2*len(ops) + q.Probed
	rec.Failed = pRef.Failed + p.Failed + q.Failed

	setupAgg := d.setup.Spans
	query, nextHop := agg["query"], agg[rpcName[kNextHop]]
	getPost, getPostLocal := agg[rpcName[kGetPostings]], agg[localName[kGetPostings]]
	cacheQ := agg[rpcName[kCacheQuery]]
	docs := int64(s.Docs)

	rec.set("chord.next_hop_msgs", per(nextHop.N, query.N), "msgs/query")
	rec.set("chord.lookup_hops", per(nextHop.N, getPost.N+getPostLocal.N), "hops")
	rec.set("chord.route_vus", per(nextHop.Clock, query.N)/1e3, "us")
	rec.set("chord.next_hop_rpc_us", nextHop.meanWallUS(), "us")
	rec.set("chord.next_hop_handler_us", agg[handleName[kNextHop]].meanWallUS(), "us")
	rec.set("chord.ring_build_s", refSetup.RingBuildS, "s")
	rec.set("core.fetch_vus", per(getPost.Clock+getPostLocal.Clock, query.N)/1e3, "us")
	rec.set("core.get_postings_msgs", per(getPost.N, query.N), "msgs/query")
	rec.set("core.get_postings_rpc_us", getPost.meanWallUS(), "us")
	rec.set("core.get_postings_handler_us", agg[handleName[kGetPostings]].meanWallUS(), "us")
	rec.set("core.cache_query_msgs", per(cacheQ.N, query.N), "msgs/query")
	cqHandler := agg[handleName[kCacheQuery]]
	if cqHandler.N == 0 { // caches off: only the training inserts send it
		cqHandler = setupAgg[handleName[kCacheQuery]]
	}
	rec.set("core.cache_query_handler_us", cqHandler.meanWallUS(), "us")
	history := 0
	for _, peer := range d.net.Peers() {
		history += peer.HistoryLen()
	}
	rec.set("core.history_len", float64(history)/float64(len(d.addrs)), "queries")
	rec.set("core.search_self_us", per(query.WallSelf, query.N)/1e3, "us")
	rec.set("core.share_us", refSetup.ShareS/float64(docs)*1e6, "us")
	rec.set("core.learn_us", refSetup.LearnS/float64(docs*learnIters)*1e6, "us")
	rec.set("core.publish_msgs", float64(refSetup.Share.Calls[kPublish]+refSetup.Learn.Calls[kPublish])/float64(docs), "msgs/doc")
	rec.set("core.poll_msgs", float64(refSetup.Learn.Calls[kPoll])/float64(docs*learnIters), "msgs/doc/iter")
	rec.set("core.poll_handler_us", setupAgg[handleName[kPoll]].meanWallUS(), "us")
	rec.set("central.build_s", refSetup.CentralS, "s")
	rec.set("harness.synth_s", refSetup.SynthS, "s")
	tracedQPS, _, _ := p.calibrated()
	refQPS, _, _ := pRef.calibrated()
	if cal.err != nil {
		return fmt.Errorf("calibration: %w", cal.err)
	}
	rec.set("harness.trace_overhead_ratio", tracedQPS/refQPS, "ratio")

	// Everything that needs no span comes from the untraced reference pass.
	nq := float64(pRef.Queries)
	rec.set("runtime.allocs_per_query", float64(pRef.MemAfter.Mallocs-pRef.MemBefore.Mallocs)/nq, "allocs/query")
	rec.set("runtime.alloc_bytes_per_query", float64(pRef.MemAfter.TotalAlloc-pRef.MemBefore.TotalAlloc)/nq, "B/query")
	rec.set("runtime.gc_cycles", float64(pRef.MemAfter.NumGC-pRef.MemBefore.NumGC), "count")
	rec.set("cache.postings_hit_ratio", pRef.Postings.HitRate(), "ratio")
	rec.set("cache.result_hit_ratio", pRef.Results.HitRate(), "ratio")
	rec.set("cache.invalidations", float64(pRef.Postings.Invalidated+pRef.Results.Invalidated), "entries")
	rec.set("transport.bytes_per_msg", float64(pRef.Traffic.bytes())/float64(max(pRef.Traffic.calls(), 1)), "B/msg")
	conns := 0
	if d.tcp != nil {
		conns = d.tcp.OpenConns()
	}
	rec.set("transport.conns_open", float64(conns), "conns")

	// Caller span minus handler span is the rpc span's self time: what the
	// transport itself costs per call.
	var rpcSelf, rpcN int64
	for k := 0; k < nKinds; k++ {
		a := agg[rpcName[k]]
		rpcSelf, rpcN = rpcSelf+a.WallSelf, rpcN+a.N
	}
	if s.TCP {
		rec.set("transport.rpc_overhead_us", per(rpcSelf, rpcN)/1e3, "us")
	} else {
		rec.set("simnet.call_overhead_ns", per(rpcSelf, rpcN), "ns")
	}

	// The write cycle, timed on its own after the passes: in mixed it is the
	// cost behind every 50th operation; elsewhere it is the same code on that
	// workload's deployment.
	// It continues the cycle where the pass left it, so it is failure-free
	// whatever the pass's write count.
	var writes []op
	for i := p.Writes; i < p.Writes+3*min(s.Docs, 100); i++ {
		writes = append(writes, op{kind: opUnshare + opKind(i%3), arg: int32(i / 3 % s.Docs)})
	}
	pw := d.drive(writes, 1, len(writes), nil, g)
	rec.Failed += pw.Failed
	rec.Attempted += len(writes)
	rec.set("core.unshare_us", float64(pw.WriteWall[0].Microseconds())/float64(max(pw.WriteN[0], 1)), "us")
	rec.set("core.write_op_us", float64((pw.WriteWall[0]+pw.WriteWall[1]+pw.WriteWall[2]).Microseconds())/float64(max(pw.Writes, 1)), "us")

	in, err := captureInput(d, ops)
	if err != nil {
		return err
	}
	if err := runProbes(d, in, s.Parallelism, budget, rec); err != nil {
		return err
	}

	// Sum checks: the trace must account for the latency it explains.
	var selfSum, rootSum int64
	for name, a := range agg {
		selfSum += a.WallSelf
		if name == "query" || name == writeSpan[0] || name == writeSpan[1] || name == writeSpan[2] {
			rootSum += a.Wall
		}
	}
	rec.notef("traced pass: %d queries + %d writes, calibrated qps %.0f traced vs %.0f untraced, on the wall clock %.0f vs %.0f (1 client, Parallelism 1)", p.Queries, p.Writes, tracedQPS, refQPS, p.qps(), pRef.qps())
	rec.notef("wall self-time check: spans' self times sum to %d ns, root spans to %d ns (equal: %v)", selfSum, rootSum, selfSum == rootSum)
	rec.notef("traced mean latency %.3f us = search_self %.3f us + children %.3f us", query.meanWallUS(), per(query.WallSelf, query.N)/1e3, per(query.Wall-query.WallSelf, query.N)/1e3)
	if s.Virtual {
		parts := nextHop.Clock + getPost.Clock + getPostLocal.Clock
		rec.notef("virtual latency check: query spans %d ns, chord.route + core.fetch %d ns (equal: %v); mean %.3f us",
			query.Clock, parts, query.Clock == parts, per(query.Clock, query.N)/1e3)
		if query.Clock != parts {
			g.breach("virtual latency %d ns is not route %d + fetch %d", query.Clock, nextHop.Clock, getPost.Clock+getPostLocal.Clock)
		}
	}
	if selfSum != rootSum {
		g.breach("span self times sum to %d ns, root spans to %d ns", selfSum, rootSum)
	}
	rec.notef("dominant layers: chord.next_hop carries %.1f%% of messages and %.1f%% of clock latency; search_self + handle:get_postings %.1f%% of wall latency; transport overhead x msgs %.1f%% of wall latency",
		100*per(nextHop.N, rpcN), 100*per(nextHop.Clock, query.Clock),
		100*per(query.WallSelf+agg[handleName[kGetPostings]].Wall, query.Wall), 100*per(rpcSelf, query.Wall))
	rec.notef("rank_hash %s", q.RankHash)
	if s.TCP {
		rec.notef("traffic crossed loopback sockets, not a link: latency is CPU and kernel time only")
	}
	rec.Breaches = append(refGate.breaches, g.breaches...)

	out := filepath.Join(".bench_build", "trace-"+s.Name+".json")
	if err := writeSpans(out, rec, agg, d.setup.Spans, kept); err != nil {
		return err
	}
	rec.notef("spans of the first %d operations and the aggregates of all %d written to %s", len(kept), query.N+int64(p.Writes), out)
	return nil
}

// meanWallUS is the mean wall duration of the spans of one name, in µs.
func (a spanAgg) meanWallUS() float64 { return per(a.Wall, a.N) / 1e3 }

// per divides a total by a count, 0 when nothing was counted.
func per(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// writeSpans writes the span file: the environment, the per-name aggregates
// of the traced pass and of the traced set-up phases, and the full span
// trees of the first operations.
func writeSpans(path string, rec *record, pass, setup map[string]spanAgg, kept [][]span) error {
	names := func(m map[string]spanAgg) []string {
		out := make([]string, 0, len(m))
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	type named struct {
		Name string `json:"name"`
		spanAgg
	}
	var doc struct {
		Workload   string      `json:"workload"`
		Env        environment `json:"env"`
		Pass       []named     `json:"traced_pass"`
		Setup      []named     `json:"traced_setup"`
		Operations [][]span    `json:"operations"`
	}
	doc.Workload, doc.Env, doc.Operations = rec.Workload, rec.Env, kept
	for _, n := range names(pass) {
		doc.Pass = append(doc.Pass, named{n, pass[n]})
	}
	for _, n := range names(setup) {
		doc.Setup = append(doc.Setup, named{n, setup[n]})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
