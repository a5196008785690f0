package chord

import (
	"encoding/binary"
	"errors"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/wire"
)

// Binary codecs for the overlay's hot-path payloads. Every lookup hop is a
// nextHopReq/nextHopResp exchange and every stabilization round a
// stateResp, so these four types dominate the overlay's wire traffic; the
// hand-rolled encoding spares each of them a type dictionary and reflection
// walk. The simulator passes payloads by value and never uses these codecs;
// over a socket they are the only encoding.

// kindRouted is the envelope's kind, which its own walk must recognize to
// refuse an envelope inside an envelope.
const kindRouted = wire.KindChordBase + 4

// nextHopResp's leading byte: the Done bool of the hint-less form, plus a bit
// saying a Hint follows — so an answer without one costs what it always did.
const (
	flagDone = 1 << iota
	flagHint
)

func init() {
	wire.Register(wire.KindChordBase+0, nextHopReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(nextHopReq)
		w.Fixed(r.Key[:])
		wire.List(w, &r.Exclude, chordid.Bytes, func(w *wire.Walker, id *chordid.ID) { w.Fixed(id[:]) })
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindChordBase+1, nextHopResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(nextHopResp)
		var flags uint64
		if r.Done {
			flags |= flagDone
		}
		if !r.Hint.IsZero() {
			flags |= flagHint
		}
		if w.Uint(&flags); w.Decoding() {
			if flags&^(flagDone|flagHint) != 0 {
				w.Fail(errors.New("chord: unknown next-hop flags"))
			}
			r.Done = flags&flagDone != 0
		}
		walkRef(w, &r.Ref)
		if flags&flagHint != 0 {
			walkRef(w, &r.Hint)
		}
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindChordBase+2, stateResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(stateResp)
		walkRef(w, &r.Pred)
		// A Ref is at least ID + one length byte on the wire.
		wire.List(w, &r.Succs, chordid.Bytes+1, walkRef)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindChordBase+3, Ref{}, func(w *wire.Walker, v any) any {
		r, _ := v.(Ref)
		walkRef(w, &r)
		return wire.Decoded(w, r)
	})

	// The envelope is the key followed by the application payload's own
	// kind-prefixed encoding, running to the end of the value. A nil payload
	// is no bytes; a payload without a binary codec cannot cross a socket
	// inside an envelope and is written as the unassigned kind 0, which the
	// receiver refuses. The payload is decoded where it lies in the frame.
	wire.Register(kindRouted, routed{}, func(w *wire.Walker, v any) any {
		r, _ := v.(routed)
		w.Fixed(r.Key[:])
		if !w.Decoding() {
			if r.Payload != nil && !w.Append(r.Payload) {
				w.Fixed([]byte{0, 0})
			}
			return nil
		}
		inner := w.Rest()
		// Checked before decoding, so a frame of envelopes all the way down
		// costs one comparison, not one stack frame per level.
		if len(inner) >= 2 && binary.BigEndian.Uint16(inner) == kindRouted {
			w.Fail(errors.New("chord: routed envelope inside a routed envelope"))
			return r
		}
		if len(inner) > 0 {
			var err error
			r.Payload, err = wire.DecodeBinary(inner)
			w.Fail(err)
		}
		return r
	})

	wire.Register(wire.KindChordBase+5, notOwner{}, func(w *wire.Walker, v any) any {
		r, _ := v.(notOwner)
		w.Fixed(r.Key[:])
		return wire.Decoded(w, r)
	})
}

func walkRef(w *wire.Walker, r *Ref) {
	w.Fixed(r.ID[:])
	wire.StringAs(w, &r.Addr)
}
