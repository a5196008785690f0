package chord

import (
	"context"
	"fmt"
	"testing"

	"github.com/spritedht/sprite/internal/simnet"
)

// dieOnCall wraps a transport so that one armed call to the victim fails —
// optionally killing the victim at that exact moment — reproducing a peer
// that dies between stabilize's liveness check and its state re-fetch.
type dieOnCall struct {
	simnet.Transport
	fi     simnet.FaultInjector
	victim simnet.Addr
	armed  bool
	kill   bool // fail the victim for real, not just this one call
}

func (d *dieOnCall) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	if d.armed && to == d.victim {
		d.armed = false
		if d.kill {
			d.fi.Fail(d.victim)
		}
		return simnet.Message{}, fmt.Errorf("chord test: call to %s lost: %w", d.victim, simnet.ErrUnreachable)
	}
	return d.Transport.CallCtx(ctx, from, to, msg)
}

// stabilizeCandidateRing builds a 4-node ring a < v < b < c where node a
// only knows successors [b, c] — the state right after v joined and notified
// b but before a has stabilized — so a's next stabilize discovers v as a
// better successor through b's predecessor pointer.
func stabilizeCandidateRing(t *testing.T, net simnet.Transport) (a, v, b *Node) {
	t.Helper()
	r := NewRing(net, Config{SuccessorListLen: 3})
	if _, err := r.AddNodes("sc", 4); err != nil {
		t.Fatal(err)
	}
	r.Build()
	nodes := r.Nodes() // sorted by ID
	a, v, b = nodes[0], nodes[1], nodes[2]
	c := nodes[3]
	a.mu.Lock()
	a.succs = []Ref{b.Ref(), c.Ref()}
	a.mu.Unlock()
	return a, v, b
}

func TestStabilizeSkipsCandidateThatDiedMidExchange(t *testing.T) {
	inner := simnet.New(77)
	wrap := &dieOnCall{Transport: inner, fi: inner, kill: true}
	a, v, b := stabilizeCandidateRing(t, wrap)

	// Arm the trap: the very next call to v — stabilize's state re-fetch —
	// finds it dead, even though the liveness precheck just passed.
	wrap.victim = v.Addr()
	wrap.armed = true
	a.stabilize()
	if got := a.Successor().ID; got == v.ID() {
		t.Fatal("stabilize promoted a successor candidate that died before the re-fetch")
	} else if got != b.ID() {
		t.Fatalf("successor = %s, want the verified-live %s", got.Short(), b.ID().Short())
	}
}

func TestStabilizePromotesCandidateOnMessageLoss(t *testing.T) {
	inner := simnet.New(78)
	wrap := &dieOnCall{Transport: inner, fi: inner, kill: false}
	a, v, _ := stabilizeCandidateRing(t, wrap)

	// The re-fetch is lost but the candidate is alive: losing one packet
	// must not demote a live, closer successor.
	wrap.victim = v.Addr()
	wrap.armed = true
	a.stabilize()
	if got := a.Successor().ID; got != v.ID() {
		t.Fatalf("successor = %s, want the live candidate %s despite message loss", got.Short(), v.ID().Short())
	}
}
