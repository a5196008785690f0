package core

import (
	"context"
	"fmt"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/resilience"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// This file is the fault-tolerant read path. A query's terms go in one
// get_postings per indexing peer its own node can name (fetchBatched), every
// other term by the ring (fetchTermPostings). Each delivery layers
// (inside-out) the per-attempt timeout and retry with backoff, and when the
// holder stays unreachable each term fails over to the §7 successor replica
// holders via exclusion lookups. The zero ResilienceConfig collapses every
// layer to a single plain attempt, preserving the paper's exact message
// accounting.

// ResilienceConfig tunes the query path's fault tolerance. The zero value
// disables everything: one attempt per fetch, no timeout, no failover —
// exactly the pre-resilience behavior.
type ResilienceConfig struct {
	// MaxRetries is the number of re-attempts against the same holder after
	// a transient failure (0 = single attempt).
	MaxRetries int
	// BaseBackoff is the cap of the first retry's full-jitter sleep; each
	// subsequent retry doubles the cap, up to 50× BaseBackoff.
	BaseBackoff time.Duration
	// PerCallTimeout bounds each individual fetch attempt. Zero applies none.
	PerCallTimeout time.Duration
	// FailoverToReplicas re-resolves a term whose holder stayed unreachable
	// after retries with the holder excluded, so the lookup lands on the
	// successor holding the term's replica (§7). Up to ReplicationFactor
	// failovers are attempted per term. Requires ReplicationFactor > 0 to
	// find anything.
	FailoverToReplicas bool
	// JitterSeed seeds the deterministic backoff jitter (0 = seed 1), so
	// same-seed runs retry on identical schedules.
	JitterSeed int64
}

// validate rejects unusable resilience configurations.
func (c ResilienceConfig) validate() error {
	switch {
	case c.MaxRetries < 0:
		return fmt.Errorf("core: Resilience.MaxRetries = %d, need >= 0", c.MaxRetries)
	case c.BaseBackoff < 0 || c.PerCallTimeout < 0:
		return fmt.Errorf("core: Resilience durations must be >= 0")
	}
	return nil
}

// resil is the network's compiled resilience machinery: the retry policy and
// whether to fail over to replicas.
type resil struct {
	policy   resilience.Policy
	failover bool
}

func newResil(cfg ResilienceConfig, clk vtime.Clock) resil {
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	return resil{
		policy: resilience.Policy{
			MaxRetries:     cfg.MaxRetries,
			BaseBackoff:    cfg.BaseBackoff,
			PerCallTimeout: cfg.PerCallTimeout,
			Rand:           resilience.NewJitter(seed),
			Clock:          clk,
		},
		failover: cfg.FailoverToReplicas,
	}
}

// delivery is the resilient delivery leg of one postings exchange: every call
// of send is one delivery to one holder under the network's retry policy, each
// attempt a child span of tsp; attempts counts them all for the
// fetch_attempts histogram, which observe records.
type delivery struct {
	p        *Peer
	tsp      *telemetry.Span
	attempts int
}

// send makes one resilient delivery: every attempt — first or retry — is a
// single round trip carrying exactly the message it was handed, so a holder
// reached on an owner hint keeps receiving the enveloped form. It is a
// chord.Sender.
func (d *delivery) send(ctx context.Context, to simnet.Addr, m simnet.Message) (simnet.Message, error) {
	p := d.p
	reply, retries, err := resilience.Do(ctx, p.net.resil.policy, func(cctx context.Context) (simnet.Message, error) {
		fsp := d.tsp.StartChild(msgGetPostings)
		defer fsp.Finish()
		reply, cerr := p.net.ring.Net().CallCtx(cctx, p.Addr(), to, m)
		if cerr != nil {
			fsp.Annotate("error", cerr.Error())
		}
		return reply, cerr
	})
	d.attempts += retries + 1
	if retries > 0 {
		p.net.met.retries.Add(int64(retries))
	}
	return reply, err
}

// observe records the exchange's attempts, if it made any.
func (d *delivery) observe() {
	if d.attempts > 0 {
		d.p.net.met.fetchAttempts.Observe(int64(d.attempts))
	}
}

// fetchTermPostings routes a postings request to a term's indexing peer under
// the network's resilience policy: the delivery leg of the route is retried
// with backoff against the holder the route resolved, and failover takes it
// from there. query/record control history recording at the serving peer,
// exactly as the direct fetch would (nil query sends the bare Record-off
// request the postings cache uses).
//
// The caller's ctx dominates: once it is done, no retry or failover is
// attempted and the returned error wraps ctx.Err().
func (p *Peer) fetchTermPostings(ctx context.Context, term string, query []string, record bool, tsp *telemetry.Span) (postingsList, simnet.Addr, error) {
	key := chordid.HashKey(term)
	req := getPostingsReq{Terms: []string{term}, Query: query, Record: record}
	msg := simnet.Message{Type: msgGetPostings, Payload: req, Size: req.size()}
	d := &delivery{p: p, tsp: tsp}
	defer d.observe()
	reply, ref, _, err := p.node.RouteVia(ctx, key, msg, tsp, d.send, "")
	return p.failover(ctx, key, msg, d, ref, reply, err)
}

// failover finishes a one-term fetch whose delivery to first came back as
// reply, err. If first stays unreachable, it looks the key up again with it
// excluded so responsibility falls to the successor carrying the replica (§7),
// and tries there — up to ReplicationFactor failovers when FailoverToReplicas
// is set. A zero first means no holder was resolved at all.
func (p *Peer) failover(ctx context.Context, key chordid.ID, msg simnet.Message, d *delivery, first chord.Ref, reply simnet.Message, err error) (postingsList, simnet.Addr, error) {
	maxFailovers := 0
	if p.net.resil.failover {
		maxFailovers = p.net.cfg.ReplicationFactor
	}
	ref := first
	var exclude []chordid.ID
	var lastErr error
	for holder := 0; ; holder++ {
		if err == nil {
			if holder > 0 {
				d.tsp.Annotate("failover", string(ref.Addr))
			}
			if resp, ok := reply.Payload.(getPostingsResp); ok && len(resp.Items) == 1 {
				return resp.Items[0], ref.Addr, nil
			}
			return postingsList{}, "", fmt.Errorf("core: %s answered a postings request with %T", ref.Addr, reply.Payload)
		}
		if ref.IsZero() {
			// No holder resolved: the lookup itself routes around dead nodes,
			// so when even it fails there is no one left to fail over to. The
			// previous holder's delivery error, if any, says more.
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		lastErr = err
		if resilience.Classify(err) != resilience.Transient || ctx.Err() != nil || holder == maxFailovers {
			break
		}
		exclude = append(exclude, ref.ID)
		p.net.met.failovers.Inc()
		if ref, _, err = p.node.LookupExcluding(ctx, key, exclude, d.tsp); err == nil {
			reply, err = d.send(ctx, ref.Addr, msg)
		}
	}
	return postingsList{}, "", lastErr
}

// fetchTerm runs one term's fetch in a "term" child span of span, annotated
// with the term and then with the indexing peer that served it or the error.
func fetchTerm(span *telemetry.Span, term string, fetch func(tsp *telemetry.Span) (postingsList, simnet.Addr, error)) (termFetch, error) {
	tsp := span.StartChild("term")
	tsp.Annotate("term", term)
	defer tsp.Finish()
	resp, peer, err := fetch(tsp)
	if err != nil {
		tsp.Annotate("error", err.Error())
		return termFetch{}, err
	}
	tsp.Annotate("indexing_peer", string(peer))
	return termFetch{resp: resp, peer: peer}, nil
}

// fetchItem is one term of a batched fetch: its index in the stage's terms
// and the node the querier's own node names as its owner.
type fetchItem struct {
	i     int
	owner chord.Ref
}

// fetchBatched fetches the distinct terms dts with one sprite.get_postings
// per indexing peer this peer's own node names (chord.Node.LocalOwner),
// carrying every term bound there and the query once; the holder checks each
// term against its own arc. The exchanges fan out under stage, each writing
// its terms' lists into outs. A term no one was named for, one its holder
// refused and one whose holder is not alive take the per-term route
// (fetchTermPostings).
func (p *Peer) fetchBatched(ctx context.Context, stage string, dts, query []string, record bool, span *telemetry.Span) ([]termFetch, []error) {
	items := make([]fetchItem, len(dts))
	for i, term := range dts {
		items[i] = fetchItem{i, p.node.LocalOwner(chordid.HashKey(term))}
	}
	jobs := groupJobs(items, func(fetchItem) *Peer { return p }, func(it fetchItem) simnet.Addr { return it.owner.Addr })
	outs := make([]termFetch, len(dts))
	res, errs := fanout.Map(ctx, p.net.exec, stage, len(jobs), func(ctx context.Context, k int) ([]error, error) {
		j := &jobs[k]
		send := func() ([]error, []bool, bool) {
			out, refused := p.fetchBatch(ctx, j, dts, query, record, span, outs)
			return out, refused, true
		}
		return settle(j, p.net.met.fetchRerouted, send, func(it fetchItem) error {
			var err error
			outs[it.i], err = fetchTerm(span, dts[it.i], func(tsp *telemetry.Span) (postingsList, simnet.Addr, error) {
				return p.fetchTermPostings(ctx, dts[it.i], query, record, tsp)
			})
			return err
		}), nil
	})
	terrs := make([]error, len(dts))
	for k, j := range jobs {
		for m, it := range j.items {
			if errs[k] != nil {
				terrs[it.i] = errs[k]
			} else {
				terrs[it.i] = res[k][m]
			}
		}
	}
	return outs, terrs
}

// fetchBatch sends a batch job's get_postings to its holder, under the retry
// policy in a "batch" child span of span, writes each served term's list into
// outs and returns each term's error and whether the holder refused it. The
// batch is each term's first delivery: if the holder stays unreachable, every
// term fails over from it in a "term" span of its own, as a fetch routed to
// the same holder would.
func (p *Peer) fetchBatch(ctx context.Context, j *job[fetchItem], dts, query []string, record bool, span *telemetry.Span, outs []termFetch) ([]error, []bool) {
	bsp := span.StartChild("batch")
	bsp.Annotate("indexing_peer", string(j.holder))
	req := getPostingsReq{Terms: make([]string, len(j.items)), Query: query, Record: record, CheckArc: true}
	for m, it := range j.items {
		req.Terms[m] = dts[it.i]
		bsp.Annotate("term", dts[it.i])
	}
	d := &delivery{p: p, tsp: bsp}
	reply, err := d.send(ctx, j.holder, simnet.Message{Type: msgGetPostings, Payload: req, Size: req.size()})
	d.observe()
	resp, ok := reply.Payload.(getPostingsResp)
	if err == nil && (!ok || len(resp.Items) != len(req.Terms)) {
		err = fmt.Errorf("core: %s answered a postings request for %d terms with %T", j.holder, len(req.Terms), reply.Payload)
	}
	if err != nil {
		bsp.Annotate("error", err.Error())
	}
	bsp.Finish()

	errs, refused := make([]error, len(req.Terms)), make([]bool, len(req.Terms))
	for m, it := range j.items {
		switch term := req.Terms[m]; {
		case err != nil:
			one := getPostingsReq{Terms: []string{term}, Query: query, Record: record}
			msg := simnet.Message{Type: msgGetPostings, Payload: one, Size: one.size()}
			outs[it.i], errs[m] = fetchTerm(span, term, func(tsp *telemetry.Span) (postingsList, simnet.Addr, error) {
				fd := &delivery{p: p, tsp: tsp}
				defer fd.observe()
				return p.failover(ctx, chordid.HashKey(term), msg, fd, it.owner, simnet.Message{}, err)
			})
		case resp.Items[m].Refused:
			refused[m] = true
		default:
			outs[it.i] = termFetch{resp: resp.Items[m], peer: j.holder}
		}
	}
	return errs, refused
}
