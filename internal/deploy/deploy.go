// Package deploy builds a SPRITE deployment: a transport (the in-process
// simulator or loopback TCP), a Chord ring over it, and a core.Network on
// the ring. Every non-benchmark site that needs a running network — the
// facade, the chaos harness and the experiments — builds it here, so the
// wiring rules (which clock and registry go where, how peers are named,
// what a failed build releases) live in one place.
package deploy

import (
	"errors"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/transport"
	"github.com/spritedht/sprite/internal/vtime"
)

// Spec describes one deployment.
type Spec struct {
	// Peers is the ring size.
	Peers int
	// Prefix names simulator peers Prefix0..Prefix<Peers-1>. TCP peers are
	// named by their loopback addresses instead.
	Prefix string
	// Seed drives the simulator's latency and loss draws.
	Seed int64
	// TCP runs the peers over loopback sockets instead of the simulator.
	TCP bool
	// Virtual runs the simulator and the core on one deterministic virtual
	// clock (vtime.Sim) instead of the wall clock. Refused with TCP.
	Virtual bool
	// LinkDelay is the simulator's constant one-way link latency (0 = none).
	// A constant delay draws nothing from the simulator's random stream.
	LinkDelay time.Duration
	// SleepLinks sleeps each call's link latency on the deployment's clock
	// instead of only accounting it.
	SleepLinks bool
	// Lean keeps only the simulator's aggregate counters, not its per-type
	// and per-destination breakdowns.
	Lean bool
	// Telemetry, if non-nil, receives the transport's, Chord's and the
	// core's instrumentation.
	Telemetry *telemetry.Registry
	// Core configures the SPRITE layer; its Clock and Telemetry are set
	// from the spec.
	Core core.Config
}

// Deployment is one built network.
type Deployment struct {
	Transport simnet.Transport
	Sim       *simnet.Network      // nil on TCP
	TCP       *transport.Transport // nil on the simulator
	Clock     *vtime.Sim           // nil on the wall clock
	Ring      *chord.Ring
	Net       *core.Network
	// Addrs lists the peers in Net.Peers() order.
	Addrs []simnet.Addr
}

// New builds the deployment s describes: the transport, every node added to
// the ring and the ring built, then the core network over it. On a virtual
// clock the build runs under Run. A failed build closes what it opened.
func New(s Spec) (*Deployment, error) {
	if s.Virtual && s.TCP {
		return nil, errors.New("VirtualTime requires the in-process simulator (incompatible with TCP)")
	}
	d := &Deployment{}
	if s.Virtual {
		d.Clock = vtime.NewSim()
		s.Core.Clock = d.Clock
	}
	s.Core.Telemetry = s.Telemetry
	var addrs []simnet.Addr
	if s.TCP {
		var err error
		if addrs, err = transport.FreeAddrs(s.Peers); err != nil {
			return nil, err
		}
		d.TCP = transport.New(transport.WithTelemetry(s.Telemetry))
		d.Transport = d.TCP
	} else {
		opts := []simnet.Option{simnet.WithTelemetry(s.Telemetry)}
		if d.Clock != nil {
			opts = append(opts, simnet.WithClock(d.Clock))
		}
		if s.LinkDelay > 0 {
			opts = append(opts, simnet.WithLatency(simnet.UniformLatency(s.LinkDelay, s.LinkDelay)))
		}
		if s.Lean {
			opts = append(opts, simnet.WithLeanStats())
		}
		d.Sim = simnet.New(s.Seed, opts...)
		d.Sim.SetSleepLatency(s.SleepLinks)
		d.Transport = d.Sim
	}
	d.Ring = chord.NewRing(d.Transport, chord.Config{Telemetry: s.Telemetry})
	var err error
	d.Run(func() {
		if err = d.addNodes(s, addrs); err != nil {
			return
		}
		d.Ring.Build()
		d.Net, err = core.NewNetwork(d.Ring, s.Core)
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	for _, p := range d.Net.Peers() {
		d.Addrs = append(d.Addrs, p.Addr())
	}
	return d, nil
}

// addNodes adds the simulator's named peers, or one node per TCP address,
// and reports a listener that failed to bind.
func (d *Deployment) addNodes(s Spec, addrs []simnet.Addr) error {
	if d.TCP == nil {
		_, err := d.Ring.AddNodes(s.Prefix, s.Peers)
		return err
	}
	for _, a := range addrs {
		if _, err := d.Ring.AddNode(string(a)); err != nil {
			return err
		}
	}
	return d.TCP.LastError()
}

// Run executes fn with the calling goroutine registered on the deployment's
// virtual clock, so every virtual wait inside (slept link latency, backoff,
// timeouts) is scheduled deterministically; on the wall clock it calls fn.
// Every phase that drives a virtual deployment must go through it.
// Concurrent callers each attach on their own.
func (d *Deployment) Run(fn func()) {
	if d.Clock == nil {
		fn()
		return
	}
	d.Clock.Run(fn)
}

// Close releases the TCP transport's listeners and connections. The
// simulator holds nothing, so Close is then a no-op.
func (d *Deployment) Close() {
	if d.TCP != nil {
		d.TCP.Close()
	}
}
