package transport

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

// metrics caches the transport's instruments so the hot path never takes
// the registry lock or builds a name. Every instrument is nil (a valid
// no-op) when no registry is installed.
type metrics struct {
	tel *telemetry.Registry

	// types maps a message type to its per-type counters. It is copied on
	// write under typesMu and read without a lock; it stops growing at
	// maxTypes, past which a type's counters are resolved per call.
	types   atomic.Pointer[map[string]*typeCounters]
	typesMu sync.Mutex

	localBypass  *telemetry.Counter
	serveWorkers *telemetry.Counter
	dials        *telemetry.Counter
	dialErrors   *telemetry.Counter
	connsOpen    *telemetry.Gauge
	connsIdle    *telemetry.Gauge

	batchFrames *telemetry.Histogram
	batchBytes  *telemetry.Histogram
	latency     *telemetry.Histogram

	codecBinaryBytes *telemetry.Counter

	errCtx     *telemetry.Counter
	errDead    *telemetry.Counter
	errTimeout *telemetry.Counter
	errSend    *telemetry.Counter
	errConn    *telemetry.Counter
	errRemote  *telemetry.Counter
	errEncode  *telemetry.Counter
	errDecode  *telemetry.Counter
}

func (m *metrics) init(tel *telemetry.Registry) {
	m.tel = tel
	m.types.Store(&map[string]*typeCounters{})
	m.localBypass = tel.Counter("tcp.local_bypass")
	m.serveWorkers = tel.Counter("tcp.serve_workers")
	m.dials = tel.Counter("tcp.dials")
	m.dialErrors = tel.Counter("tcp.errors.dial")
	m.connsOpen = tel.Gauge("tcp.conns.open")
	m.connsIdle = tel.Gauge("tcp.conns.idle")
	m.batchFrames = tel.Histogram("tcp.batch.frames")
	m.batchBytes = tel.Histogram("tcp.batch.bytes")
	m.latency = tel.Histogram("tcp.latency_us")
	m.codecBinaryBytes = tel.Counter("tcp.codec.binary.bytes")
	m.errCtx = tel.Counter("tcp.errors.ctx")
	m.errDead = tel.Counter("tcp.errors.dead")
	m.errTimeout = tel.Counter("tcp.errors.timeout")
	m.errSend = tel.Counter("tcp.errors.send")
	m.errConn = tel.Counter("tcp.errors.conn")
	m.errRemote = tel.Counter("tcp.errors.remote")
	m.errEncode = tel.Counter("tcp.errors.encode")
	m.errDecode = tel.Counter("tcp.errors.decode")
}

// observeBatch records one flush: how many frames it carried and their total
// bytes.
func (m *metrics) observeBatch(frames, bytes int) {
	m.batchFrames.Observe(int64(frames))
	m.batchBytes.Observe(int64(bytes))
}

// countCodec counts one encoded frame's bytes against the binary codec when
// the frame carries a payload.
func (m *metrics) countCodec(payload any, frameBytes int) {
	if payload != nil {
		m.codecBinaryBytes.Add(int64(frameBytes))
	}
}

// typeCounters are one message type's counters.
type typeCounters struct {
	calls, bytes, served *telemetry.Counter
}

// maxTypes bounds the per-type cache: a peer sending ever new type names
// makes the registry grow, as it always has, but not this copied map.
const maxTypes = 256

// forType returns msgType's counters, resolving them in the registry on the
// type's first use.
func (m *metrics) forType(msgType string) *typeCounters {
	if tc := (*m.types.Load())[msgType]; tc != nil {
		return tc
	}
	tc := &typeCounters{
		calls:  m.tel.Counter("tcp.calls." + msgType),
		bytes:  m.tel.Counter("tcp.bytes." + msgType),
		served: m.tel.Counter("tcp.served." + msgType),
	}
	m.typesMu.Lock()
	defer m.typesMu.Unlock()
	old := *m.types.Load()
	if len(old) < maxTypes {
		next := make(map[string]*typeCounters, len(old)+1)
		maps.Copy(next, old)
		next[msgType] = tc
		m.types.Store(&next)
	}
	return tc
}

// call records one successful round trip.
func (m *metrics) call(msgType string, bytes int, elapsed time.Duration) {
	if m.tel == nil {
		return
	}
	tc := m.forType(msgType)
	tc.calls.Inc()
	tc.bytes.Add(int64(bytes))
	m.latency.Observe(elapsed.Microseconds())
}

// served records one handled request on the server side.
func (m *metrics) served(msgType string) {
	if m.tel == nil {
		return
	}
	m.forType(msgType).served.Inc()
}
