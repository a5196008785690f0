package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/resilience"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/wire"
)

// This file is the one way out of a peer: nothing else in the package calls
// the transport or routes on the ring (`make send-guard` checks). send
// delivers one message, to an address or routed by a key. exchange runs the
// batched protocols on top of it — the learning sweep's poll, withdraw and
// publish (§5.3), the query's get_postings (§4): each indexing peer a peer
// addresses from its own records gets one request carrying every item bound
// there, the receiver checks each item's key against its own arc
// (chord.Node.Serves) and refuses what it does not serve, and every item a
// batch does not settle goes alone by its key through send. Pinned protocols
// (protocol.pinned) are the exception — withdrawals and a handoff's
// relocates: an item goes only to the peer it names. A protocol is a request builder and a reply reader, which the batch
// and the one-item route (protocol.route) share.

// dest is where send delivers a message: to addr, or — addr "" — to the peer
// that serves key, routed by the ring (chord.Node.RouteVia) with hint, when
// set, tried first. failed is a holder a keyed message already failed to
// reach, with err: send then starts by failing over from it.
type dest struct {
	addr   simnet.Addr
	key    chordid.ID
	hint   simnet.Addr
	failed simnet.Addr
	err    error
}

// policy is how send delivers. Each attempt is a child span of span, named
// after the message. A resilient delivery runs every attempt under the
// network's retry policy, and a keyed message whose holder stays unreachable
// fails over to the successors holding the key's replicas (§7): up to
// ReplicationFactor of them when FailoverToReplicas is set, each found by a
// lookup that excludes the holders tried before. Fetches are resilient;
// everything else makes one attempt.
type policy struct {
	span      *telemetry.Span
	resilient bool
}

// send delivers msg to d and returns the reply and the peer that served it. A
// routed message reaches its holder in the form RouteVia hands over, enveloped
// or bare, and every retry repeats that form to the same peer; the delivery
// runs in RouteVia's frame, not inside its walk. Whatever form it goes in is
// what it costs: send sets its Size to the payload's encoded length
// (wire.Size), the only place a request is sized. A done ctx stops retries and
// failovers.
func (p *Peer) send(ctx context.Context, d dest, msg simnet.Message, pol policy) (simnet.Message, simnet.Addr, error) {
	attempts := 0
	call := func(ctx context.Context, to simnet.Addr, m simnet.Message) (simnet.Message, error) {
		m.Size = wire.Size(m.Payload)
		attempt := func(ctx context.Context) (simnet.Message, error) {
			sp := pol.span.StartChild(m.Type)
			defer sp.Finish()
			reply, err := p.net.ring.Net().CallCtx(ctx, p.Addr(), to, m)
			if err != nil {
				sp.Annotate("error", err.Error())
			}
			return reply, err
		}
		if !pol.resilient {
			return attempt(ctx)
		}
		reply, retries, err := resilience.Do(ctx, p.net.resil.policy, attempt)
		if attempts += retries + 1; retries > 0 {
			p.net.met.retries.Add(int64(retries))
		}
		return reply, err
	}
	if pol.resilient {
		defer func() {
			if attempts > 0 {
				p.net.met.fetchAttempts.Observe(int64(attempts))
			}
		}()
	}

	var reply simnet.Message
	var err error
	holder := d.addr
	switch {
	case d.failed != "":
		holder, err = d.failed, d.err
	case d.addr != "":
		reply, err = call(ctx, d.addr, msg)
	default:
		var ref chord.Ref
		reply, ref, _, err = p.node.RouteVia(ctx, d.key, msg, pol.span, call, d.hint)
		holder = ref.Addr
	}
	if d.addr != "" || !pol.resilient {
		return reply, holder, err
	}
	maxFailovers := 0
	if p.net.resil.failover {
		maxFailovers = p.net.cfg.ReplicationFactor
	}
	var exclude []chordid.ID
	for tried := 0; err != nil; tried++ {
		if holder == "" || tried == maxFailovers || ctx.Err() != nil || resilience.Classify(err) != resilience.Transient {
			return simnet.Message{}, "", err
		}
		exclude = append(exclude, chordid.HashKey(string(holder)))
		p.net.met.failovers.Inc()
		ref, _, lerr := p.node.LookupExcluding(ctx, d.key, exclude, pol.span)
		if lerr != nil {
			// The lookup routes around dead nodes, so when even it fails no one
			// is left to fail over to; the holder's delivery error says more.
			return simnet.Message{}, "", err
		}
		holder = ref.Addr
		if reply, err = call(ctx, holder, msg); err == nil {
			pol.span.Annotate("failover", string(holder))
		}
	}
	return reply, holder, nil
}

// protocol is one batched exchange: items of type T, each answered with an R.
type protocol[T, R any] struct {
	stage    string             // the fan-out stage
	rerouted *telemetry.Counter // counts items a batch did not settle that had a holder
	// span is the parent of each batch's "batch" span and each routed item's
	// "term" span; nil for none.
	span      *telemetry.Span
	resilient bool // deliver under the network's resilience policy
	hinted    bool // a routed item names its holder as the route's hint
	// pinned keeps an item that names a holder at that holder, the sender
	// itself included: it goes in the holder's batch and nowhere else, and a
	// batch that fails fails its items. Only an item naming none is routed.
	pinned bool

	from   func(T) *Peer       // the peer an item goes from
	term   func(T) string      // the term whose key routes an item
	holder func(T) simnet.Addr // the peer its sender's records name; "" none
	// request builds the message carrying items to to — a batch's holder, a
	// routed item's hint — with checkArc set for a batch.
	request func(to simnet.Addr, items []T, checkArc bool) simnet.Message
	// read reads at's reply to len(got) items into got — each item's outcome —
	// and refused — whether at refused it — or returns an error if it is no
	// such reply.
	read func(reply simnet.Message, at simnet.Addr, got []R, refused []bool) error
	// reask, when set, reports whether an item whose route was built for sent
	// but served by served is asked again, directly, built for served.
	reask func(it T, sent, served simnet.Addr) bool
}

// job is one request of an exchange: a peer's items bound for one holder, or
// — holder "" — one item for the route. Its items lie contiguous in the
// exchange's buffers: idx are their input positions, got and refused their
// answers from the holder.
type job[T, R any] struct {
	p       *Peer
	holder  simnet.Addr
	items   []T
	idx     []int
	got     []R
	refused []bool
}

// exchange sends items under pr and returns their outcomes in item order. It
// makes each peer's items bound for one holder a batch, in order of first
// appearance, and an item whose holder is unknown or — unless pr is pinned —
// the peer itself a job of its own, and fans the jobs out. A job with a live
// holder goes as one batch first, in a "batch" span annotated with the holder
// and the terms. Every item it did not settle — refused, unanswered, bound for
// a dead holder or for none — goes alone by its key (route) in a "term" span,
// counted in rerouted when it had a holder; on a resilient protocol an item of
// a batch that failed fails over from the holder, as it would had it been
// routed there. A pinned protocol's batch goes to its holder dead or alive,
// and is all its items get. An item whose job never ran (ctx done) gets ctx's
// error.
func exchange[T, R any](ctx context.Context, items []T, pr *protocol[T, R]) ([]R, []error) {
	n := len(items)
	out, errs := make([]R, n), make([]error, n)
	if n == 0 {
		return out, errs
	}
	// The jobs share one allocation per buffer: each job's items, input
	// positions and answers are windows on them, laid out job by job and
	// filled in item order. Items that come job by job already — one holder,
	// each alone on the route, or a caller's grouping — fill windows on
	// themselves, each item in its own place, and answer into out directly.
	jobs := make([]job[T, R], 0, n)
	of := make([]int, 3*n) // item i's job; job k's size at n+k; positions from 2n
	batch := make(map[[2]simnet.Addr]int)
	for i, it := range items {
		p, h := pr.from(it), pr.holder(it)
		if h == p.Addr() && !pr.pinned {
			h = ""
		}
		key := [2]simnet.Addr{p.Addr(), h}
		if k, ok := batch[key]; ok && h != "" {
			of[i] = k
		} else {
			of[i], batch[key] = len(jobs), len(jobs)
			jobs = append(jobs, job[T, R]{p: p, holder: h})
		}
		of[n+of[i]]++
	}
	grouped := slices.IsSorted(of[:n])
	buf, idx, got, refused := items, of[2*n:], out, make([]bool, n)
	if !grouped {
		buf, got = make([]T, n), make([]R, n)
	}
	for k, start := 0, 0; k < len(jobs); k++ {
		j, end := &jobs[k], start+of[n+k]
		j.items, j.idx, j.got, j.refused = buf[start:start:end], idx[start:start:end], got[start:end], refused[start:end]
		start = end
	}
	for i, it := range items {
		j := &jobs[of[i]]
		j.items, j.idx = append(j.items, it), append(j.idx, i)
	}
	_, failed := fanout.Map(ctx, jobs[0].p.net.exec, pr.stage, len(jobs), func(ctx context.Context, k int) (struct{}, error) {
		pr.settle(ctx, &jobs[k], out, errs)
		return struct{}{}, nil
	})
	for k, err := range failed {
		for _, i := range jobs[k].idx {
			if err != nil {
				errs[i] = err
			}
		}
	}
	return out, errs
}

// settle runs one job of exchange, writing its items' outcomes into out and
// errs at their positions.
func (pr *protocol[T, R]) settle(ctx context.Context, j *job[T, R], out []R, errs []error) {
	var err error
	sent := j.holder != "" && (pr.pinned || j.p.net.ring.Net().Alive(j.holder))
	if sent {
		bsp := pr.span.StartChild("batch")
		bsp.Annotate("indexing_peer", string(j.holder))
		for _, it := range j.items {
			bsp.Annotate("term", pr.term(it))
		}
		var reply simnet.Message
		if reply, _, err = j.p.send(ctx, dest{addr: j.holder}, pr.request(j.holder, j.items, true), policy{bsp, pr.resilient}); err == nil {
			err = pr.read(reply, j.holder, j.got, j.refused)
		}
		if err != nil {
			bsp.Annotate("error", err.Error())
		}
		bsp.Finish()
	}
	for m, it := range j.items {
		if sent && err == nil && !j.refused[m] {
			out[j.idx[m]] = j.got[m]
			continue
		}
		if sent && pr.pinned {
			errs[j.idx[m]] = err
			continue
		}
		var d dest
		if j.holder != "" {
			pr.rerouted.Inc()
			if err != nil && pr.resilient {
				d.failed, d.err = j.holder, err
			}
		}
		out[j.idx[m]], errs[j.idx[m]] = inTerm(pr.span, pr.term(it), func(tsp *telemetry.Span) (R, simnet.Addr, error) {
			return pr.route(ctx, it, d, tsp)
		})
	}
}

// route is the protocol's one-item form: it sends it alone through send,
// routed by its term's key with d's failover state and attempts timed under
// span — or, pinned, straight to the holder it names — and returns the item's
// outcome and the peer that gave it.
func (pr *protocol[T, R]) route(ctx context.Context, it T, d dest, span *telemetry.Span) (R, simnet.Addr, error) {
	p, items := pr.from(it), []T{it}
	d.key = chordid.HashKey(pr.term(it))
	if pr.pinned {
		d.addr = pr.holder(it)
	}
	if pr.hinted {
		d.hint = pr.holder(it)
	}
	reply, at, err := p.send(ctx, d, pr.request(d.hint, items, false), policy{span, pr.resilient})
	if err == nil && pr.reask != nil && pr.reask(it, d.hint, at) {
		reply, _, err = p.send(ctx, dest{addr: at}, pr.request(at, items, false), policy{})
	}
	var got [1]R
	if err == nil {
		err = pr.read(reply, at, got[:], make([]bool, 1))
	}
	if err != nil {
		return got[0], "", err
	}
	return got[0], at, nil
}

// inTerm runs one item's exchange in a "term" child span of span, annotated
// with the term and then with the peer that answered or the error.
func inTerm[R any](span *telemetry.Span, term string, fn func(tsp *telemetry.Span) (R, simnet.Addr, error)) (R, error) {
	tsp := span.StartChild("term")
	tsp.Annotate("term", term)
	defer tsp.Finish()
	out, at, err := fn(tsp)
	if err != nil {
		tsp.Annotate("error", err.Error())
		return out, err
	}
	tsp.Annotate("indexing_peer", string(at))
	return out, nil
}

// badReply is a protocol's error for a reply that does not answer n items.
func badReply(reply simnet.Message, at simnet.Addr, n int) error {
	return fmt.Errorf("core: %s answered %s for %d items with %T", at, reply.Type, n, reply.Payload)
}
