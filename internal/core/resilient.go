package core

import (
	"context"
	"fmt"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/resilience"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// This file is the fault-tolerant read path: every postings fetch goes
// through fetchTermPostings, which layers (inside-out) the per-attempt
// timeout, retry with backoff, and — when the owner stays unreachable —
// failover to the §7 successor replica holders via exclusion lookups. The
// zero ResilienceConfig collapses every layer to a single plain attempt,
// preserving the paper's exact message accounting.

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

// fetchTermPostings routes a postings request to a term's indexing peer under
// the network's resilience policy: the delivery leg of the route is retried
// with backoff against the holder the route resolved; if that holder stays
// unreachable, look the key up again with it excluded so responsibility falls
// to the successor carrying the replica (§7), and try there — up to
// ReplicationFactor failovers. query/record control history
// recording at the serving peer, exactly as the direct fetch would (nil query
// sends the bare Record-off request the postings cache uses).
//
// The caller's ctx dominates: once it is done, no retry or failover is
// attempted and the returned error wraps ctx.Err().
func (p *Peer) fetchTermPostings(ctx context.Context, term string, query []string, record bool, tsp *telemetry.Span) (getPostingsResp, simnet.Addr, error) {
	key := chordid.HashKey(term)
	r := p.net.resil
	maxFailovers := 0
	if r.failover {
		maxFailovers = p.net.cfg.ReplicationFactor
	}
	req := getPostingsReq{Term: term}
	size := len(term) + 1
	if query != nil {
		req = getPostingsReq{Term: term, Query: query, Record: record}
		size = len(term) + sizeTerms(query)
	}
	msg := simnet.Message{Type: msgGetPostings, Payload: req, Size: size}

	attempts := 0
	defer func() {
		if attempts > 0 {
			p.net.met.fetchAttempts.Observe(int64(attempts))
		}
	}()
	// send is one resilient delivery to one holder: every attempt — first or
	// retry — is a single round trip carrying exactly the message it was
	// handed, so a holder reached on an owner hint keeps receiving the
	// enveloped form.
	send := func(ctx context.Context, to simnet.Addr, m simnet.Message) (simnet.Message, error) {
		reply, retries, err := resilience.Do(ctx, r.policy, func(cctx context.Context) (simnet.Message, error) {
			fsp := tsp.StartChild(msgGetPostings)
			defer fsp.Finish()
			reply, cerr := p.net.ring.Net().CallCtx(cctx, p.Addr(), to, m)
			if cerr != nil {
				fsp.Annotate("error", cerr.Error())
			}
			return reply, cerr
		})
		attempts += retries + 1
		if retries > 0 {
			p.net.met.retries.Add(int64(retries))
		}
		return reply, err
	}

	var exclude []chordid.ID
	var lastErr error
	for holder := 0; holder <= maxFailovers; holder++ {
		var reply simnet.Message
		var ref chord.Ref
		var err error
		if holder == 0 {
			reply, ref, _, err = p.node.RouteVia(ctx, key, msg, tsp, send, "")
		} else if ref, _, err = p.node.LookupExcluding(ctx, key, exclude, tsp); err == nil {
			reply, err = send(ctx, ref.Addr, msg)
		}
		if err == nil {
			if holder > 0 {
				tsp.Annotate("failover", string(ref.Addr))
			}
			return reply.Payload.(getPostingsResp), ref.Addr, nil
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
		if resilience.Classify(err) != resilience.Transient || ctx.Err() != nil {
			break
		}
		exclude = append(exclude, ref.ID)
		if holder < maxFailovers {
			p.net.met.failovers.Inc()
		}
	}
	return getPostingsResp{}, "", lastErr
}
