package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/transport"
	"github.com/spritedht/sprite/internal/vtime"
)

// Layer probes replay inputs taken from the run — the lists the stream's
// terms fetch, the keys it looks up, the postings the owners published —
// straight into each layer's public functions, so a layer's cost is known
// apart from the stack above it. Each probe repeats whole passes over its
// input until it has done probeTime of work.

// timePasses calls pass until budget has elapsed and returns the mean wall
// nanoseconds per unit, a pass covering the given number of units.
func timePasses(budget time.Duration, units int, pass func()) float64 {
	n, start := 0, time.Now()
	for n == 0 || time.Since(start) < budget {
		pass()
		n++
	}
	return float64(time.Since(start)) / float64(n) / float64(max(units, 1))
}

// probeInput is what the probes replay.
type probeInput struct {
	terms   []string        // distinct terms of the stream's queries, in first-use order
	lists   []index.Encoded // lists[i]: terms[i]'s list as stored at its indexing peer
	queries [][]int         // per stream query: indices into terms of its distinct terms
	publish []published     // what the owners currently have published, in share order
}

type published struct {
	term    string
	posting index.Posting
}

// captureInput reads the replay inputs off the deployment through its public
// accessors: the ring oracle names each term's indexing peer, the peer's
// index hands out the encoded list, the owners list their index terms.
func captureInput(d *deployment, ops []op) (*probeInput, error) {
	in := &probeInput{}
	seen := make(map[string]int)
	for _, o := range ops {
		if o.kind != opQuery {
			continue
		}
		var q []int
		for _, t := range d.test[o.arg].Terms {
			ti, ok := seen[t]
			if !ok {
				ti = len(in.terms)
				seen[t] = ti
				node, ok := d.ring.Owner(chordid.HashKey(t))
				if !ok {
					return nil, fmt.Errorf("probe: no owner for %q", t)
				}
				peer, ok := d.net.Peer(node.Addr())
				if !ok {
					return nil, fmt.Errorf("probe: no peer at %s", node.Addr())
				}
				in.terms = append(in.terms, t)
				in.lists = append(in.lists, peer.Index().Encoded(t))
			}
			dup := false
			for _, have := range q {
				dup = dup || have == ti
			}
			if !dup {
				q = append(q, ti)
			}
		}
		in.queries = append(in.queries, q)
	}
	for _, id := range d.net.Documents() {
		doc, _ := d.col.Corpus.Doc(id)
		owner, _ := d.net.Owner(id)
		terms, err := d.net.IndexedTerms(id)
		if err != nil {
			return nil, err
		}
		for _, t := range terms {
			in.publish = append(in.publish, published{t, index.Posting{
				Doc: id, Owner: string(owner.Addr()), Freq: doc.TF[t], DocLen: doc.Length,
			}})
		}
	}
	return in, nil
}

// runProbes measures every layer probe and files the results in rec.
func runProbes(d *deployment, in *probeInput, parallelism int, budget time.Duration, rec *record) error {
	ctx := context.Background()

	// Shape of the stream's fetches.
	var fetches, postings, blocks int
	for _, q := range in.queries {
		for _, ti := range q {
			fetches++
			postings += in.lists[ti].Len()
			blocks += in.lists[ti].NumBlocks()
		}
	}
	rec.set("index.postings_per_fetch", float64(postings)/float64(max(fetches, 1)), "postings")
	rec.set("index.blocks_per_fetch", float64(blocks)/float64(max(fetches, 1)), "blocks")
	rec.set("ir.contributions_per_query", float64(postings)/float64(max(len(in.queries), 1)), "count")
	meanTerms := int(math.Round(float64(fetches) / float64(max(len(in.queries), 1))))

	// chord: Node.Lookup over the run's term keys, from peers in rotation.
	// Links are accounted, not slept, so this is the routing code's CPU cost.
	keys := make([]chordid.ID, len(in.terms))
	for i, t := range in.terms {
		keys[i] = chordid.HashKey(t)
	}
	peers := d.net.Peers()
	var lookupErr error
	d.run(func() {
		ns := timePasses(budget, len(keys), func() {
			for i, k := range keys {
				if _, _, err := peers[i%len(peers)].Node().Lookup(k); err != nil {
					lookupErr = err
				}
			}
		})
		rec.set("chord.lookup_us", ns/1e3, "us")
	})
	if lookupErr != nil {
		return fmt.Errorf("probe: lookup: %w", lookupErr)
	}

	// index: the publish stream into a fresh Inverted, then out of it again.
	var addNS, removeNS time.Duration
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < 2*budget; passes++ {
		ix := index.NewInverted()
		t0 := time.Now()
		for _, p := range in.publish {
			ix.Add(p.term, p.posting)
		}
		t1 := time.Now()
		for _, p := range in.publish {
			ix.Remove(p.term, p.posting.Doc)
		}
		addNS += t1.Sub(t0)
		removeNS += time.Since(t1)
	}
	perPosting := float64(passes * max(len(in.publish), 1))
	rec.set("index.add_ns", float64(addNS)/perPosting, "ns")
	rec.set("index.remove_ns", float64(removeNS)/perPosting, "ns")

	// index: cursor decode and the wire form of the fetched lists.
	total := 0
	for _, e := range in.lists {
		total += e.Len()
	}
	sink := 0
	rec.set("index.cursor_ns", timePasses(budget, total, func() {
		for _, e := range in.lists {
			c := e.Cursor()
			for _, f, _, ok := c.NextBytes(); ok; _, f, _, ok = c.NextBytes() {
				sink += f
			}
		}
	}), "ns")
	blobs := make([][]byte, len(in.lists))
	var codecErr error
	rec.set("index.encoded_marshal_ns", timePasses(budget, total, func() {
		for i, e := range in.lists {
			if blobs[i], codecErr = e.MarshalBinary(); codecErr != nil {
				return
			}
		}
	}), "ns")
	rec.set("index.encoded_unmarshal_ns", timePasses(budget, total, func() {
		for i := range blobs {
			var e index.Encoded
			if codecErr = e.UnmarshalBinary(blobs[i]); codecErr != nil {
				return
			}
			sink += e.Len()
		}
	}), "ns")
	if codecErr != nil {
		return fmt.Errorf("probe: encoded list codec: %w", codecErr)
	}

	// ir: score the same lists the way searchCtx does — collect per term,
	// fold per query, rank the top k.
	n := d.net.Config().SurrogateN
	parts := make([][]ir.Contribution, len(in.lists))
	rec.set("ir.collect_ns", timePasses(budget, total, func() {
		for i, e := range in.lists {
			wq := ir.QueryWeight(1, 4, n, max(e.Len(), 1))
			parts[i] = ir.CollectStream(e.Cursor(), wq, n, max(e.Len(), 1), parts[i][:0])
		}
	}), "ns")
	var accNS, rankNS time.Duration
	acc := ir.NewAccumulator()
	passes = 0
	for start := time.Now(); passes == 0 || time.Since(start) < 2*budget; passes++ {
		for _, q := range in.queries {
			acc.Reset()
			t0 := time.Now()
			for _, ti := range q {
				acc.AccumulateAll(parts[ti])
			}
			t1 := time.Now()
			sink += len(acc.RankedTop(topK))
			accNS += t1.Sub(t0)
			rankNS += time.Since(t1)
		}
	}
	rec.set("ir.accumulate_ns", float64(accNS)/float64(passes*max(postings, 1)), "ns")
	rec.set("ir.rank_top_us", float64(rankNS)/float64(passes*max(len(in.queries), 1))/1e3, "us")

	// cache: the run's key set through a cache the size core configures.
	c := cache.New[int](cache.Config{MaxEntries: 4096})
	rec.set("cache.put_ns", timePasses(budget, len(in.terms), func() {
		for i, t := range in.terms {
			c.Put(t, i, 64)
		}
	}), "ns")
	rec.set("cache.get_ns", timePasses(budget, len(in.terms), func() {
		for _, t := range in.terms {
			v, _ := c.Get(t)
			sink += v
		}
	}), "ns")

	// fanout: what Map costs around an empty body, at the workload's own
	// Parallelism and a typical query's width.
	exec := fanout.New(parallelism, nil)
	rec.set("fanout.map_overhead_us", timePasses(budget, 1, func() {
		fanout.Map(ctx, exec, "probe", meanTerms, func(context.Context, int) (struct{}, error) {
			return struct{}{}, nil
		})
	})/1e3, "us")

	// vtime: one Sleep event with a single registered goroutine.
	sim := vtime.NewSim()
	sim.Run(func() {
		rec.set("vtime.sleep_ns", timePasses(budget, 1000, func() {
			for i := 0; i < 1000; i++ {
				sim.Sleep(ctx, time.Millisecond) //nolint:errcheck // ctx is never done
			}
		}), "ns")
	})

	// Echo pairs: a 64-byte chord.Ref (binary codec) bounced between two
	// peers, on each transport, through a metering transport of its own.
	simRTT, simOver, err := echoProbe(simnet.New(1), nil, budget)
	if err != nil {
		return err
	}
	tcp := transport.New()
	defer tcp.Close()
	socks, err := reserveLoopback(2)
	if err != nil {
		return err
	}
	tcpRTT, tcpOver, err := echoProbe(tcp, socks, budget)
	if err != nil {
		return err
	}
	rec.set("transport.echo_rtt_us", tcpRTT/1e3, "us")
	// Each transport's per-call overhead comes from the run's own spans on
	// the transport the workload uses (set by the caller), and from the echo
	// pair on the other one.
	if d.spec.TCP {
		rec.set("simnet.call_overhead_ns", simOver, "ns")
	} else {
		rec.set("transport.rpc_overhead_us", tcpOver/1e3, "us")
	}
	rec.notef("echo pairs: simnet rtt %.0f ns (overhead %.0f ns), loopback rtt %.1f us (overhead %.1f us)", simRTT, simOver, tcpRTT/1e3, tcpOver/1e3)
	probeSink += sink
	return nil
}

// probeSink receives the probes' results so the compiler cannot drop the
// measured calls.
var probeSink int

// echoProbe bounces a chord.Ref between two peers over inner and returns the
// mean round trip and the mean caller-side overhead (round trip minus handler)
// in nanoseconds.
func echoProbe(inner simnet.Transport, socks []simnet.Addr, budget time.Duration) (rtt, overhead float64, err error) {
	m := newMeter(inner)
	names := []simnet.Addr{"echo0", "echo1"}
	for i, name := range names {
		if socks != nil {
			m.mapAddr(name, socks[i])
		}
		m.Register(name, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) (simnet.Message, error) {
			return msg, nil
		}))
	}
	msg := simnet.Message{
		Type:    "bench.echo",
		Payload: chord.Ref{ID: chordid.HashKey("echo"), Addr: "a-peer-address-padded-to-make-64-bytes-in-all"},
		Size:    64,
	}
	trc := newTracer(nil)
	m.tr.Store(trc)
	timePasses(budget, 1, func() {
		id := trc.begin("echo")
		_, cerr := m.CallCtx(context.Background(), names[0], names[1], msg)
		trc.end(id)
		if cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("probe: echo: %w", err)
	}
	agg, _ := trc.take()
	rpc := agg[rpcName[kOther]]
	return float64(rpc.Wall) / float64(rpc.N), float64(rpc.WallSelf) / float64(rpc.N), nil
}
