package chord

import (
	"encoding/binary"
	"errors"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// Binary codecs for the overlay's hot-path payloads. Every lookup hop is a
// nextHopReq/nextHopResp exchange and every stabilization round a
// stateResp, so these four types dominate the overlay's wire traffic; the
// hand-rolled encoding spares each of them a type dictionary and reflection
// walk. The simulator passes payloads by value and never uses these codecs;
// over a socket they are the only encoding.

// kindRouted is the envelope's kind, which its own decoder must recognize to
// refuse an envelope inside an envelope.
const kindRouted = wire.KindChordBase + 4

// nextHopResp's leading byte: the Done bool of the hint-less form, plus a bit
// saying a Hint follows — so an answer without one costs what it always did.
const (
	flagDone = 1 << iota
	flagHint
)

func init() {
	wire.RegisterBinary(wire.KindChordBase+0, nextHopReq{},
		func(e *wire.Encoder, v any) {
			r := v.(nextHopReq)
			e.Raw(r.Key[:])
			e.Uint(uint64(len(r.Exclude)))
			for _, id := range r.Exclude {
				e.Raw(id[:])
			}
		},
		func(d *wire.Decoder) any {
			var r nextHopReq
			copy(r.Key[:], d.Raw(chordid.Bytes))
			if n := d.Count(chordid.Bytes); n > 0 {
				r.Exclude = make([]chordid.ID, n)
				for i := range r.Exclude {
					copy(r.Exclude[i][:], d.Raw(chordid.Bytes))
				}
			}
			return r
		})

	wire.RegisterBinary(wire.KindChordBase+1, nextHopResp{},
		func(e *wire.Encoder, v any) {
			r := v.(nextHopResp)
			var flags uint64
			if r.Done {
				flags |= flagDone
			}
			if !r.Hint.IsZero() {
				flags |= flagHint
			}
			e.Uint(flags)
			encodeRef(e, r.Ref)
			if flags&flagHint != 0 {
				encodeRef(e, r.Hint)
			}
		},
		func(d *wire.Decoder) any {
			var r nextHopResp
			flags := d.Uint()
			if flags&^(flagDone|flagHint) != 0 {
				d.Fail(errors.New("chord: unknown next-hop flags"))
			}
			r.Done = flags&flagDone != 0
			r.Ref = decodeRef(d)
			if flags&flagHint != 0 {
				r.Hint = decodeRef(d)
			}
			return r
		})

	wire.RegisterBinary(wire.KindChordBase+2, stateResp{},
		func(e *wire.Encoder, v any) {
			r := v.(stateResp)
			encodeRef(e, r.Pred)
			e.Uint(uint64(len(r.Succs)))
			for _, s := range r.Succs {
				encodeRef(e, s)
			}
		},
		func(d *wire.Decoder) any {
			var r stateResp
			r.Pred = decodeRef(d)
			// A Ref is at least ID + one length byte on the wire.
			if n := d.Count(chordid.Bytes + 1); n > 0 {
				r.Succs = make([]Ref, n)
				for i := range r.Succs {
					r.Succs[i] = decodeRef(d)
				}
			}
			return r
		})

	wire.RegisterBinary(wire.KindChordBase+3, Ref{},
		func(e *wire.Encoder, v any) { encodeRef(e, v.(Ref)) },
		func(d *wire.Decoder) any { return decodeRef(d) })

	// The envelope is the key followed by the application payload's own
	// kind-prefixed encoding, running to the end of the value. A nil payload
	// is no bytes; a payload without a binary codec cannot cross a socket
	// inside an envelope and is written as the unassigned kind 0, which the
	// receiver refuses.
	wire.RegisterBinary(kindRouted, routed{},
		func(e *wire.Encoder, v any) {
			r := v.(routed)
			e.Raw(r.Key[:])
			if r.Payload != nil && !e.Append(r.Payload) {
				e.Raw([]byte{0, 0})
			}
		},
		func(d *wire.Decoder) any {
			var r routed
			copy(r.Key[:], d.Raw(chordid.Bytes))
			inner := d.Raw(d.Remaining())
			if len(inner) == 0 {
				return r
			}
			// Checked before decoding, so a frame of envelopes all the way
			// down costs one comparison, not one stack frame per level.
			if len(inner) >= 2 && binary.BigEndian.Uint16(inner) == kindRouted {
				d.Fail(errors.New("chord: routed envelope inside a routed envelope"))
				return r
			}
			v, err := wire.DecodeBinary(inner)
			d.Fail(err)
			r.Payload = v
			return r
		})

	wire.RegisterBinary(wire.KindChordBase+5, notOwner{},
		func(e *wire.Encoder, v any) {
			r := v.(notOwner)
			e.Raw(r.Key[:])
		},
		func(d *wire.Decoder) any {
			var r notOwner
			copy(r.Key[:], d.Raw(chordid.Bytes))
			return r
		})
}

func encodeRef(e *wire.Encoder, r Ref) {
	e.Raw(r.ID[:])
	e.String(string(r.Addr))
}

func decodeRef(d *wire.Decoder) Ref {
	var r Ref
	copy(r.ID[:], d.Raw(chordid.Bytes))
	r.Addr = simnet.Addr(d.String())
	return r
}
