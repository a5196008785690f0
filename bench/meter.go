package main

import (
	"context"
	"sync/atomic"

	"github.com/spritedht/sprite/internal/simnet"
)

// msgTypes are the message types the query, share and learn paths send; every
// other type is counted under "other".
var msgTypes = [...]string{
	"chord.next_hop",
	"sprite.get_postings",
	"sprite.cache_query",
	"sprite.publish",
	"sprite.unpublish",
	"sprite.poll",
	"other",
}

const (
	kNextHop = iota
	kGetPostings
	kCacheQuery
	kPublish
	kUnpublish
	kPoll
	kOther
	nKinds
)

func kindOf(msgType string) int {
	for k, t := range msgTypes[:kOther] {
		if t == msgType {
			return k
		}
	}
	return kOther
}

// Span names per message kind, built once so the hot path never concatenates.
var rpcName, localName, handleName [nKinds]string

func init() {
	for k, t := range msgTypes {
		rpcName[k], localName[k], handleName[k] = "rpc:"+t, "local:"+t, "handle:"+t
	}
}

// traffic is a snapshot of the meter's counters. Calls and Bytes cover RPCs
// between distinct peers only — one count per CallCtx with from ≠ to, request
// plus reply Message.Size — which is the definition of query_msgs and
// query_bytes on simnet and on sockets alike. Local counts the from = to
// calls the transports short-circuit or loop back.
type traffic struct {
	Calls, Bytes, Local [nKinds]int64
}

func (t traffic) sub(o traffic) traffic {
	for k := range t.Calls {
		t.Calls[k] -= o.Calls[k]
		t.Bytes[k] -= o.Bytes[k]
		t.Local[k] -= o.Local[k]
	}
	return t
}

func (t traffic) calls() (n int64) {
	for _, c := range t.Calls {
		n += c
	}
	return n
}

func (t traffic) bytes() (n int64) {
	for _, b := range t.Bytes {
		n += b
	}
	return n
}

// meter is the harness's own simnet.Transport, interposed between chord/core
// and the real transport. With tracing off it only counts calls and bytes by
// message type with atomic adds. With a tracer installed it also opens a
// caller-side span around every CallCtx and a server-side span around every
// handler it wrapped at Register.
//
// It also owns the peer namespace: chord and core see the logical names
// peer0…peerN-1 on every transport, and the meter translates them to the
// socket addresses the TCP transport needs. Ring positions are hashes of the
// names, so the ring — and every message count — is the same on simnet and on
// sockets and does not move with the kernel's choice of ports.
type meter struct {
	inner   simnet.Transport
	real    map[simnet.Addr]simnet.Addr // logical → socket address; nil on simnet
	logical map[simnet.Addr]simnet.Addr // socket address → logical
	tr      atomic.Pointer[tracer]

	calls, bytes, local [nKinds]atomic.Int64
}

var _ simnet.Transport = (*meter)(nil)

func newMeter(inner simnet.Transport) *meter { return &meter{inner: inner} }

// mapAddr binds a logical peer name to the socket address it listens on. All
// bindings are made before the first Register.
func (m *meter) mapAddr(name, sock simnet.Addr) {
	if m.real == nil {
		m.real = make(map[simnet.Addr]simnet.Addr)
		m.logical = make(map[simnet.Addr]simnet.Addr)
	}
	m.real[name] = sock
	m.logical[sock] = name
}

func (m *meter) toReal(a simnet.Addr) simnet.Addr {
	if r, ok := m.real[a]; ok {
		return r
	}
	return a
}

func (m *meter) toLogical(a simnet.Addr) simnet.Addr {
	if l, ok := m.logical[a]; ok {
		return l
	}
	return a
}

func (m *meter) snapshot() traffic {
	var t traffic
	for k := 0; k < nKinds; k++ {
		t.Calls[k], t.Bytes[k], t.Local[k] = m.calls[k].Load(), m.bytes[k].Load(), m.local[k].Load()
	}
	return t
}

// meteredHandler is the Register-time wrapper: it restores the caller's
// logical name and, when tracing, times the handler.
type meteredHandler struct {
	m *meter
	h simnet.Handler
}

func (mh meteredHandler) HandleMessage(from simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	from = mh.m.toLogical(from)
	tr := mh.m.tr.Load()
	if tr == nil {
		return mh.h.HandleMessage(from, msg)
	}
	id := tr.begin(handleName[kindOf(msg.Type)])
	reply, err := mh.h.HandleMessage(from, msg)
	tr.end(id)
	return reply, err
}

func (m *meter) Register(addr simnet.Addr, h simnet.Handler) {
	m.inner.Register(m.toReal(addr), meteredHandler{m, h})
}

func (m *meter) Unregister(addr simnet.Addr) { m.inner.Unregister(m.toReal(addr)) }

func (m *meter) Alive(addr simnet.Addr) bool { return m.inner.Alive(m.toReal(addr)) }

func (m *meter) Call(from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	return m.CallCtx(context.Background(), from, to, msg)
}

func (m *meter) CallCtx(ctx context.Context, from, to simnet.Addr, msg simnet.Message) (simnet.Message, error) {
	k := kindOf(msg.Type)
	remote := from != to
	name := rpcName[k]
	if !remote {
		name = localName[k]
	}
	tr := m.tr.Load()
	id := tr.begin(name)
	reply, err := m.inner.CallCtx(ctx, m.toReal(from), m.toReal(to), msg)
	tr.end(id)
	if !remote {
		m.local[k].Add(1)
		return reply, err
	}
	m.calls[k].Add(1)
	size := int64(msg.Size)
	if err == nil {
		size += int64(reply.Size)
	}
	m.bytes[k].Add(size)
	return reply, err
}
