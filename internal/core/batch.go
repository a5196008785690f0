package core

import (
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// This file holds the batching both the learning sweep (learn.go) and the
// query's fetch stage (fetchStage) use: a peer sends each indexing peer it
// addresses from its own records one message carrying every item bound there,
// the receiver checks each item's key against its own arc and refuses what it
// does not serve, and what a batch does not settle goes by the per-term route.

// job is one exchange of a batched phase: a peer's items bound for one holder
// in a batch, or — holder "" — a single item for the per-term route.
type job[T any] struct {
	p      *Peer
	holder simnet.Addr
	items  []T
}

// groupJobs makes each peer's items bound for one holder a batch, in order of
// first appearance, and every item whose holder is unknown ("") or the peer
// itself a job of its own. A query groups a handful of items on every search,
// so the jobs share one allocation and a job of its own is a window on items.
func groupJobs[T any](items []T, peerOf func(T) *Peer, holderOf func(T) simnet.Addr) []job[T] {
	jobs := make([]job[T], 0, len(items))
	batch := make(map[[2]simnet.Addr]int)
	for n, it := range items {
		p, h := peerOf(it), holderOf(it)
		if h == "" || h == p.Addr() {
			jobs = append(jobs, job[T]{p: p, items: items[n : n+1 : n+1]})
			continue
		}
		k := [2]simnet.Addr{p.Addr(), h}
		i, ok := batch[k]
		if !ok {
			i = len(jobs)
			batch[k] = i
			jobs = append(jobs, job[T]{p: p, holder: h})
		}
		jobs[i].items = append(jobs[i].items, it)
	}
	return jobs
}

// settle runs one job and returns its items' outcomes in item order. A job
// with a live holder goes as one batch first: send returns each item's outcome
// and whether the holder refused it, ok false if the holder did not answer.
// Every item the batch did not settle goes by the per-term route, counted in
// rerouted when it had a holder.
func settle[T, R any](j *job[T], rerouted *telemetry.Counter, send func() (out []R, refused []bool, ok bool), route func(T) R) []R {
	var out []R
	var refused []bool
	batched := j.holder != "" && j.p.net.ring.Net().Alive(j.holder)
	if batched {
		out, refused, batched = send()
	}
	if !batched {
		out = make([]R, len(j.items))
	}
	for k, it := range j.items {
		if batched && !refused[k] {
			continue
		}
		if j.holder != "" {
			rerouted.Inc()
		}
		out[k] = route(it)
	}
	return out
}
