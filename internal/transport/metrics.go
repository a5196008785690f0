package transport

import (
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

// metrics caches the transport's fixed-name instruments so the hot path
// never takes the registry lock. All fields are nil (valid no-ops) when no
// registry is installed; only the per-type counters still resolve names per
// call.
type metrics struct {
	tel *telemetry.Registry

	dials      *telemetry.Counter
	dialErrors *telemetry.Counter
	connsOpen  *telemetry.Gauge
	connsIdle  *telemetry.Gauge

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

// observeBatch records one writer flush: how many frames coalesced and their
// total bytes.
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

// call records one successful round trip.
func (m *metrics) call(msgType string, bytes int, elapsed time.Duration) {
	if m.tel == nil {
		return
	}
	m.tel.Counter("tcp.calls." + msgType).Inc()
	m.tel.Counter("tcp.bytes." + msgType).Add(int64(bytes))
	m.latency.Observe(elapsed.Microseconds())
}

// served records one handled request on the server side.
func (m *metrics) served(msgType string) {
	if m.tel == nil {
		return
	}
	m.tel.Counter("tcp.served." + msgType).Inc()
}
