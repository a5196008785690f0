package core

import (
	"fmt"
	"time"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/resilience"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// This file is the fault-tolerant read path: its configuration, and the
// postings protocol a query fetches with (fetching, run by exchange in
// send.go). Every fetch delivery layers (inside-out) the per-attempt timeout
// and retry with backoff, and when a term's holder stays unreachable the term
// fails over to the §7 successor replica holders via exclusion lookups (send).
// The zero ResilienceConfig collapses every layer to a single plain attempt,
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

// fetching is the postings protocol (§4) for the distinct terms dts of query:
// an item is an index into dts, answered with the term's list and the peer
// that served it. A term's holder is the node the querier's own node names as
// its owner (chord.Node.LocalOwner), so the query sends each such peer one
// get_postings carrying every term bound there and the query once, and the
// holder records the query once per term it serves. Fetches are resilient:
// a term whose batch's holder stays unreachable fails over from it, every
// other term the batch did not settle is fetched by its key, and so is a term
// nobody was named for.
func (p *Peer) fetching(stage string, dts, query []string, record bool, span *telemetry.Span) *protocol[int, termFetch] {
	return &protocol[int, termFetch]{
		stage:     stage,
		rerouted:  p.net.met.fetchRerouted,
		span:      span,
		resilient: true,
		from:      func(int) *Peer { return p },
		term:      func(i int) string { return dts[i] },
		holder:    func(i int) simnet.Addr { return p.node.LocalOwner(chordid.HashKey(dts[i])).Addr },
		request: func(_ simnet.Addr, items []int, checkArc bool) simnet.Message {
			req := getPostingsReq{Terms: make([]string, len(items)), Query: query, Record: record, CheckArc: checkArc}
			for m, i := range items {
				req.Terms[m] = dts[i]
			}
			return simnet.Message{Type: msgGetPostings, Payload: req}
		},
		read: func(reply simnet.Message, at simnet.Addr, got []termFetch, refused []bool) error {
			resp, ok := reply.Payload.(getPostingsResp)
			if !ok || len(resp.Items) != len(got) {
				return badReply(reply, at, len(got))
			}
			for k, list := range resp.Items {
				got[k], refused[k] = termFetch{resp: list, peer: at}, list.Refused
			}
			return nil
		},
	}
}
