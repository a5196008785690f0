package core

import (
	"errors"
	"math"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/wire"
)

// Binary codecs for SPRITE's application payloads — the postings fetches,
// publishes and withdrawals, polls, and repair pushes that carry nearly all of
// the system's bytes (§1's index-construction and maintenance cost). Every
// payload type core sends is registered here as one walk over its fields:
// over a socket, a type without a codec is an encode error at the caller.
// Empty slices and maps decode as nil, as gob decodes them.
func init() {
	wire.Register(wire.KindCoreBase+0, publishReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(publishReq)
		walkItems(w, &r.Items)
		w.Bool(&r.CheckArc)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+23, publishResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(publishResp)
		// An item's position and its refusal flag.
		wire.List(w, &r.Answers, 2, func(w *wire.Walker, a *publishAnswer) {
			wire.IntAs(w, &a.Item)
			w.Bool(&a.Refused)
		})
		return wire.Decoded(w, r)
	})

	// Kinds +1 and +2 are retired (sprite.unpublish's), as are +8
	// (sprite.replica's), +9 (sprite.replica_drop's), +13
	// (sprite.repair.handoff_drop's), +15 (the one-entry relocate's reply),
	// +19 (sprite.repair.retire's) and +21 and +22 (sprite.sketch_scan's):
	// do not reuse them.

	wire.Register(wire.KindCoreBase+3, getPostingsReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(getPostingsReq)
		walkStrings(w, &r.Terms)
		walkStrings(w, &r.Query)
		w.Bool(&r.Record)
		w.Bool(&r.CheckArc)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+4, getPostingsResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(getPostingsResp)
		// The refusal flag, the list's length and block count, the document
		// frequency and the replica flag.
		wire.List(w, &r.Items, 5, func(w *wire.Walker, it *postingsList) {
			w.Bool(&it.Refused)
			walkList(w, &it.Postings)
			wire.IntAs(w, &it.IndexedDF)
			w.Bool(&it.FromReplica)
		})
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+5, cacheQueryReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(cacheQueryReq)
		walkStrings(w, &r.Query)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+6, pollReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(pollReq)
		// A document's ID length byte and its two list counts.
		wire.List(w, &r.Docs, 3, func(w *wire.Walker, doc *pollDoc) {
			wire.StringAs(w, &doc.Doc)
			walkStrings(w, &doc.DocTerms)
			wire.List(w, &doc.Terms, 2, func(w *wire.Walker, t *pollTerm) {
				w.String(&t.Term)
				w.Uint(&t.Since)
			})
		})
		w.Bool(&r.CheckArc)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+7, pollResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(pollResp)
		// The flags, the query count and two varints.
		wire.List(w, &r.Items, 4, func(w *wire.Walker, it *pollResult) {
			var flags uint64
			if it.Refused {
				flags |= pollRefused
			}
			if it.Missing {
				flags |= pollMissing
			}
			if w.Uint(&flags); w.Decoding() {
				if flags&^(pollRefused|pollMissing) != 0 {
					w.Fail(errors.New("core: unknown poll flags"))
				}
				it.Refused, it.Missing = flags&pollRefused != 0, flags&pollMissing != 0
			}
			// A query's term count and its issuance count.
			wire.List(w, &it.Queries, 2, func(w *wire.Walker, q *polledQuery) {
				walkStrings(w, &q.Terms)
				copies := uint64(q.Copies)
				if w.Uint(&copies); w.Decoding() {
					// A zero count would raise max qScore without adding QF.
					if copies == 0 || copies > math.MaxInt32 {
						w.Fail(errors.New("core: poll query count out of range"))
					}
					q.Copies = int(copies)
				}
			})
			w.Uint(&it.NewSince)
			wire.IntAs(w, &it.IndexedDF)
		})
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+10, docTermsReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(docTermsReq)
		wire.StringAs(w, &r.Doc)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+11, docTermsResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(docTermsResp)
		w.Bool(&r.Found)
		// Each entry is at least one length byte and one varint.
		wire.Map(w, &r.TF, 2, func(w *wire.Walker, t string, f int) (string, int) {
			w.String(&t)
			wire.IntAs(w, &f)
			return t, f
		})
		wire.IntAs(w, &r.Length)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+12, handoffReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(handoffReq)
		wire.List(w, &r.Entries, 2, func(w *wire.Walker, ent *handoffEntry) {
			w.String(&ent.Term)
			walkPosting(w, &ent.Posting)
		})
		w.Bool(&r.Revert)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+20, handoffResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(handoffResp)
		wire.List(w, &r.Existing, 1, (*wire.Walker).Bool)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+14, relocateReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(relocateReq)
		walkItems(w, &r.Items)
		wire.StringAs(w, &r.From)
		wire.StringAs(w, &r.To)
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+16, repairDigestReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(repairDigestReq)
		walkArc(w, &r.Arc)
		w.Uint(&r.Summary.Root)
		for i := range r.Summary.Buckets {
			w.Uint(&r.Summary.Buckets[i])
		}
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+17, repairDigestResp{}, func(w *wire.Walker, v any) any {
		r, _ := v.(repairDigestResp)
		w.Bool(&r.InSync)
		wire.List(w, &r.Buckets, 1, wire.IntAs[int])
		wire.Map(w, &r.Local, 2, func(w *wire.Walker, t string, dg uint64) (string, uint64) {
			w.String(&t)
			w.Uint(&dg)
			return t, dg
		})
		return wire.Decoded(w, r)
	})

	wire.Register(wire.KindCoreBase+18, repairPushReq{}, func(w *wire.Walker, v any) any {
		r, _ := v.(repairPushReq)
		walkArc(w, &r.Arc)
		// A term's length byte, the list's length and its block count.
		wire.List(w, &r.Set, 3, func(w *wire.Walker, tp *termPostings) {
			w.String(&tp.Term)
			walkList(w, &tp.Postings)
		})
		return wire.Decoded(w, r)
	})
}

// Bits of a poll reply item's flags varint.
const (
	pollRefused = 1 << iota
	pollMissing
)

// Bits of a publish item's flags varint: the item withdraws its posting, and
// the posting is nothing but its document (a withdrawal's or a relocation's),
// which alone goes on the wire.
const (
	itemWithdraw = 1 << iota
	itemDocOnly
)

// walkItems walks an item list — the one shared by sprite.publish and
// sprite.relocate: its count, then per item the term, the
// flags and the posting, or only its document. An unknown flag fails the
// decode.
func walkItems(w *wire.Walker, items *[]publishItem) {
	// A term's length byte, the flags and a document's length byte.
	wire.List(w, items, 3, func(w *wire.Walker, it *publishItem) {
		w.String(&it.Term)
		var flags uint64
		if it.Withdraw {
			flags |= itemWithdraw
		}
		if it.Posting == (index.Posting{Doc: it.Posting.Doc}) {
			flags |= itemDocOnly
		}
		if w.Uint(&flags); w.Decoding() {
			if flags&^(itemWithdraw|itemDocOnly) != 0 {
				w.Fail(errors.New("core: unknown publish item flags"))
			}
			it.Withdraw = flags&itemWithdraw != 0
		}
		if flags&itemDocOnly != 0 {
			wire.StringAs(w, &it.Posting.Doc)
		} else {
			walkPosting(w, &it.Posting)
		}
	})
}

// walkList ships a postings list's blocks exactly as the index stores them,
// behind their length; AppendBinary only adds the block framing. Encoding a
// list copies its blocks once, and sizing one only adds up their lengths.
// Decoding, UnmarshalBinary revalidates every block, so a corrupted frame
// poisons the decode instead of smuggling malformed blocks into a query or a
// replica index.
func walkList(w *wire.Walker, l *index.Encoded) {
	raw := w.Blob(l.BinaryLen(), func(b []byte) []byte {
		b, _ = l.AppendBinary(b)
		return b
	})
	if w.Decoding() {
		w.Fail(l.UnmarshalBinary(raw))
	}
}

func walkPosting(w *wire.Walker, p *index.Posting) {
	wire.StringAs(w, &p.Doc)
	w.String(&p.Owner)
	wire.IntAs(w, &p.Freq)
	wire.IntAs(w, &p.DocLen)
	w.String(&p.Sketch)
}

// walkArc walks an arc as its two ring identifiers.
func walkArc(w *wire.Walker, a *chordid.Arc) {
	w.Fixed(a.From[:])
	w.Fixed(a.To[:])
}

// walkStrings walks a count-prefixed list of strings; an empty list reads as
// nil.
func walkStrings[S ~string](w *wire.Walker, list *[]S) {
	wire.List(w, list, 1, wire.StringAs[S])
}
