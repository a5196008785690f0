package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
)

// stubReq and stubResp are a protocol of exchange's own test: a key list, and
// per key the "key@peer" that answered it or "" for a refusal.
type stubReq struct {
	Keys     []string
	CheckArc bool
}

type stubResp struct {
	Served []string
}

// stubItem is one key sent from a peer to the holder its records name.
type stubItem struct {
	from   *Peer
	key    string
	holder simnet.Addr
}

var errSilent = errors.New("stub holder does not answer")

// TestExchangeSettlesEveryItemOnce runs exchange with a stub protocol against
// holders that answer, refuse every second item of a batch, do not answer,
// answer with the wrong number of items or are dead, and items with no holder
// or their sender as holder. Every item a batch does not settle must go by the
// route exactly once and be counted in rerouted only if it had a holder; the
// outcomes come back in item order, from two senders whose batches interleave.
func TestExchangeSettlesEveryItemOnce(t *testing.T) {
	const holder = simnet.Addr("p5")
	for _, c := range []struct {
		name      string
		mode      string // how the holder answers a batch
		resilient bool
		holderOf  func(from *Peer) simnet.Addr
	}{
		{name: "no holder", holderOf: func(*Peer) simnet.Addr { return "" }},
		{name: "self-held", holderOf: func(p *Peer) simnet.Addr { return p.Addr() }},
		{name: "holder answers", mode: "answer"},
		{name: "dead holder", mode: "dead"},
		{name: "holder refuses some", mode: "refuse"},
		{name: "holder does not answer", mode: "silent"},
		{name: "reply of the wrong length", mode: "short"},
		{name: "holder does not answer, resilient", mode: "silent", resilient: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, sim := resilientNetwork(t, 8, Config{Parallelism: 4})
			var mu sync.Mutex
			routed := map[string]int{}
			for _, p := range n.Peers() {
				p.node.SetAppHandler(simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
					req, ok := msg.Payload.(stubReq)
					if !ok {
						return p.HandleMessage(from, msg)
					}
					if !req.CheckArc {
						mu.Lock()
						for _, k := range req.Keys {
							routed[k]++
						}
						mu.Unlock()
					}
					resp := stubResp{Served: make([]string, len(req.Keys))}
					switch {
					case req.CheckArc && c.mode == "silent":
						return simnet.Message{}, errSilent
					case req.CheckArc && c.mode == "short":
						resp.Served = resp.Served[1:]
					}
					for i := range resp.Served {
						if !req.CheckArc || c.mode != "refuse" || i%2 == 0 {
							resp.Served[i] = req.Keys[i] + "@" + string(p.Addr())
						}
					}
					return simnet.Message{Type: msg.Type, Payload: resp, Size: 1}, nil
				}))
			}
			if c.mode == "dead" {
				sim.Fail(holder)
			}
			senders := []*Peer{n.Peers()[0], n.Peers()[1]}
			var items []stubItem
			for i := 0; i < 10; i++ {
				from := senders[i%3%2] // p0 p1 p0 p0 p1 p0 …: the batches interleave
				h := holder
				if c.holderOf != nil {
					h = c.holderOf(from)
				}
				items = append(items, stubItem{from: from, key: fmt.Sprintf("k%d", i), holder: h})
			}
			rerouted := telemetry.NewRegistry().Counter("rerouted")
			pr := &protocol[stubItem, string]{
				stage:     "stub",
				rerouted:  rerouted,
				resilient: c.resilient,
				from:      func(it stubItem) *Peer { return it.from },
				term:      func(it stubItem) string { return it.key },
				holder:    func(it stubItem) simnet.Addr { return it.holder },
				request: func(_ simnet.Addr, items []stubItem, checkArc bool) simnet.Message {
					req := stubReq{CheckArc: checkArc}
					for _, it := range items {
						req.Keys = append(req.Keys, it.key)
					}
					return simnet.Message{Type: "stub", Payload: req, Size: 1}
				},
				read: func(reply simnet.Message, at simnet.Addr, got []string, refused []bool) error {
					resp, ok := reply.Payload.(stubResp)
					if !ok || len(resp.Served) != len(got) {
						return badReply(reply, at, len(got))
					}
					for k, s := range resp.Served {
						got[k], refused[k] = s, s == ""
					}
					return nil
				},
			}
			out, errs := exchange(context.Background(), items, pr)

			// What each item should come back as: its batch's answer, or the
			// ring owner's over the route.
			want, wantErrs := make([]string, len(items)), make([]error, len(items))
			wantRouted, wantRerouted := map[string]int{}, 0
			inBatch := map[simnet.Addr]int{} // position within each sender's batch
			for i, it := range items {
				owner, _ := n.Ring().Owner(chordid.HashKey(it.key))
				batched := it.holder != "" && it.holder != it.from.Addr() && c.mode != "dead"
				pos := inBatch[it.from.Addr()]
				inBatch[it.from.Addr()]++
				switch {
				case batched && c.mode == "answer", batched && c.mode == "refuse" && pos%2 == 0:
					want[i] = it.key + "@" + string(holder)
				case batched && c.resilient:
					wantErrs[i] = errSilent
					wantRerouted++
				default:
					want[i] = it.key + "@" + string(owner.Addr())
					wantRouted[it.key] = 1
					if it.holder != "" && it.holder != it.from.Addr() {
						wantRerouted++
					}
				}
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("outcomes %v, want %v", out, want)
			}
			for i := range errs {
				if !errors.Is(errs[i], wantErrs[i]) {
					t.Fatalf("item %d: error %v, want %v", i, errs[i], wantErrs[i])
				}
			}
			if !reflect.DeepEqual(routed, wantRouted) {
				t.Fatalf("routed %v, want every item the batch did not settle once: %v", routed, wantRouted)
			}
			if got := rerouted.Value(); got != int64(wantRerouted) {
				t.Fatalf("rerouted %d, want %d", got, wantRerouted)
			}
		})
	}
}
