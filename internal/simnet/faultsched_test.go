package simnet

import (
	"context"
	"reflect"
	"testing"
)

func fsEcho() Handler {
	return HandlerFunc(func(from Addr, msg Message) (Message, error) {
		return Message{Type: msg.Type, Size: 1}, nil
	})
}

func TestDropCallsAfterSkipsThenDrops(t *testing.T) {
	net := New(1)
	net.Register("a", fsEcho())
	net.Register("b", fsEcho())
	net.DropCallsAfter("b", 2, 3)

	var got []bool
	for i := 0; i < 7; i++ {
		_, err := net.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 1})
		got = append(got, err == nil)
	}
	want := []bool{true, true, false, false, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("skip-then-drop pattern = %v, want %v", got, want)
	}
	if net.PendingDrops() != 0 {
		t.Fatalf("PendingDrops = %d after schedule exhausted", net.PendingDrops())
	}
	s := net.Stats()
	if s.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", s.Dropped)
	}
}

func TestDropCallsAfterClear(t *testing.T) {
	net := New(1)
	net.Register("a", fsEcho())
	net.Register("b", fsEcho())
	net.DropCallsAfter("b", 1, 5)
	if net.PendingDrops() != 5 {
		t.Fatalf("PendingDrops = %d, want 5", net.PendingDrops())
	}
	net.DropCallsAfter("b", 0, 0) // count <= 0 clears
	if net.PendingDrops() != 0 {
		t.Fatalf("PendingDrops = %d after clear", net.PendingDrops())
	}
	if _, err := net.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 1}); err != nil {
		t.Fatalf("call after clear failed: %v", err)
	}

	net.DropCalls("b", 2)
	net.ClearDrops()
	if _, err := net.CallCtx(context.Background(), "a", "b", Message{Type: "ping", Size: 1}); err != nil {
		t.Fatalf("call after ClearDrops failed: %v", err)
	}
}

// Two schedulers with the same seed over the same candidate set must emit
// identical event streams regardless of candidate ordering — the property
// chaos replay depends on.
func TestFaultSchedulerDeterministic(t *testing.T) {
	peers := []Addr{"p1", "p2", "p3", "p4", "p5", "p6"}
	run := func(order []Addr) []FaultEvent {
		net := New(7)
		for _, a := range peers {
			net.Register(a, fsEcho())
		}
		s := NewFaultScheduler(net, 99, FaultSchedulerConfig{MaxFailed: 2, MinAlive: 3})
		var evs []FaultEvent
		for i := 0; i < 40; i++ {
			evs = append(evs, s.Tick(order))
		}
		return evs
	}
	fwd := append([]Addr(nil), peers...)
	rev := make([]Addr, len(peers))
	for i, a := range peers {
		rev[len(peers)-1-i] = a
	}
	a, b := run(fwd), run(rev)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event streams diverged across candidate orderings:\n%v\n%v", a, b)
	}
}

func TestFaultSchedulerBoundsAndHeal(t *testing.T) {
	net := New(3)
	peers := []Addr{"a", "b", "c", "d", "e"}
	for _, a := range peers {
		net.Register(a, fsEcho())
	}
	s := NewFaultScheduler(net, 5, FaultSchedulerConfig{MaxFailed: 2, MinAlive: 2})
	for i := 0; i < 100; i++ {
		s.Tick(peers)
		if n := s.NumFailed(); n > 2 {
			t.Fatalf("tick %d: %d peers failed, MaxFailed = 2", i, n)
		}
		alive := 0
		for _, a := range peers {
			if net.Alive(a) {
				alive++
			}
		}
		if alive < 3 {
			t.Fatalf("tick %d: only %d peers alive, MinAlive = 2 requires > 2", i, alive)
		}
	}
	net.DropCalls("a", 4)
	recovered := s.Heal()
	if s.NumFailed() != 0 {
		t.Fatalf("Heal left %d peers failed", s.NumFailed())
	}
	for _, a := range recovered {
		if !net.Alive(a) {
			t.Fatalf("Heal did not revive %s", a)
		}
	}
	if net.PendingDrops() != 0 {
		t.Fatalf("Heal left %d pending drops", net.PendingDrops())
	}
	// Replaying the recorded failures via Apply reproduces the failed set.
	s2 := NewFaultScheduler(net, 0, FaultSchedulerConfig{MaxFailed: 5})
	s2.Apply(FaultEvent{Kind: FaultFail, Peer: "b"})
	s2.Apply(FaultEvent{Kind: FaultFail, Peer: "c"})
	s2.Apply(FaultEvent{Kind: FaultRecover, Peer: "b"})
	if got := s2.Failed(); !reflect.DeepEqual(got, []Addr{"c"}) {
		t.Fatalf("replayed failed set = %v, want [c]", got)
	}
	s2.Heal()
}
