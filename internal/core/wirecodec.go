package core

import (
	"errors"
	"fmt"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// Binary codecs for SPRITE's application payloads — the postings fetches,
// publishes and withdrawals, polls, and replica pushes that carry nearly all of
// the system's bytes (§1's index-construction and maintenance cost). Every
// payload type core sends is registered here: over a socket, a type without
// a codec is an encode error at the caller. The decoders normalize empty
// slices and maps to nil, as gob does.
func init() {
	wire.RegisterBinary(wire.KindCoreBase+0, publishReq{},
		func(e *wire.Encoder, v any) {
			r := v.(publishReq)
			encodeItems(e, r.Items)
			e.Bool(r.CheckArc)
		},
		func(d *wire.Decoder) any {
			r := publishReq{Items: decodeItems(d)}
			r.CheckArc = d.Bool()
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+23, publishResp{},
		func(e *wire.Encoder, v any) {
			r := v.(publishResp)
			e.Uint(uint64(len(r.Answers)))
			for _, a := range r.Answers {
				e.Int(int64(a.Item))
				e.Bool(a.Refused)
				writeStrings(e, a.Stale)
			}
		},
		func(d *wire.Decoder) any {
			// An item's position, its refusal flag and its holder count.
			return publishResp{Answers: readList(d, 3, func(a *publishAnswer) {
				a.Item = int(d.Int())
				a.Refused = d.Bool()
				a.Stale = readStrings[simnet.Addr](d)
			})}
		})

	// Kinds +1 and +2 are retired (sprite.unpublish's), as are +9
	// (sprite.replica_drop's), +13 (sprite.repair.handoff_drop's), +15 (the
	// one-entry relocate's reply), +19 (sprite.repair.retire's) and +21 and
	// +22 (sprite.sketch_scan's): do not reuse them.

	wire.RegisterBinary(wire.KindCoreBase+3, getPostingsReq{},
		func(e *wire.Encoder, v any) {
			r := v.(getPostingsReq)
			e.StringSlice(r.Terms)
			e.StringSlice(r.Query)
			e.Bool(r.Record)
			e.Bool(r.CheckArc)
		},
		func(d *wire.Decoder) any {
			var r getPostingsReq
			r.Terms = d.StringSlice()
			r.Query = d.StringSlice()
			r.Record = d.Bool()
			r.CheckArc = d.Bool()
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+4, getPostingsResp{},
		func(e *wire.Encoder, v any) {
			r := v.(getPostingsResp)
			e.Uint(uint64(len(r.Items)))
			for _, it := range r.Items {
				e.Bool(it.Refused)
				encodeList(e, it.Postings)
				e.Int(int64(it.IndexedDF))
				e.Bool(it.FromReplica)
			}
		},
		func(d *wire.Decoder) any {
			// The refusal flag, the list's length and block count, the
			// document frequency and the replica flag.
			return getPostingsResp{Items: readList(d, 5, func(it *postingsList) {
				it.Refused = d.Bool()
				it.Postings = decodeList(d)
				it.IndexedDF = int(d.Int())
				it.FromReplica = d.Bool()
			})}
		})

	wire.RegisterBinary(wire.KindCoreBase+5, cacheQueryReq{},
		func(e *wire.Encoder, v any) { e.StringSlice(v.(cacheQueryReq).Query) },
		func(d *wire.Decoder) any { return cacheQueryReq{Query: d.StringSlice()} })

	wire.RegisterBinary(wire.KindCoreBase+6, pollReq{},
		func(e *wire.Encoder, v any) {
			r := v.(pollReq)
			e.Uint(uint64(len(r.Docs)))
			for _, doc := range r.Docs {
				e.String(string(doc.Doc))
				e.StringSlice(doc.DocTerms)
				e.Uint(uint64(len(doc.Terms)))
				for _, t := range doc.Terms {
					e.String(t.Term)
					e.Uint(t.Since)
				}
			}
			e.Bool(r.CheckArc)
		},
		func(d *wire.Decoder) any {
			var r pollReq
			// A document's ID length byte and its two list counts.
			r.Docs = readList(d, 3, func(doc *pollDoc) {
				doc.Doc = index.DocID(d.String())
				doc.DocTerms = d.StringSlice()
				doc.Terms = readList(d, 2, func(t *pollTerm) { *t = pollTerm{Term: d.String(), Since: d.Uint()} })
			})
			r.CheckArc = d.Bool()
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+7, pollResp{},
		func(e *wire.Encoder, v any) {
			r := v.(pollResp)
			e.Uint(uint64(len(r.Items)))
			for _, it := range r.Items {
				var flags uint64
				if it.Refused {
					flags |= pollRefused
				}
				if it.Missing {
					flags |= pollMissing
				}
				e.Uint(flags)
				e.Uint(uint64(len(it.Queries)))
				for _, q := range it.Queries {
					e.StringSlice(q)
				}
				e.Uint(it.NewSince)
				e.Int(int64(it.IndexedDF))
			}
		},
		func(d *wire.Decoder) any {
			// The flags, the query count and two varints.
			return pollResp{Items: readList(d, 4, func(it *pollResult) {
				flags := d.Uint()
				if flags&^(pollRefused|pollMissing) != 0 {
					d.Fail(errors.New("core: unknown poll flags"))
				}
				it.Refused, it.Missing = flags&pollRefused != 0, flags&pollMissing != 0
				it.Queries = readList(d, 1, func(q *[]string) { *q = d.StringSlice() })
				it.NewSince = d.Uint()
				it.IndexedDF = int(d.Int())
			})}
		})

	wire.RegisterBinary(wire.KindCoreBase+8, replicaReq{},
		func(e *wire.Encoder, v any) { encodeItems(e, v.(replicaReq).Items) },
		func(d *wire.Decoder) any { return replicaReq{Items: decodeItems(d)} })

	wire.RegisterBinary(wire.KindCoreBase+10, docTermsReq{},
		func(e *wire.Encoder, v any) { e.String(string(v.(docTermsReq).Doc)) },
		func(d *wire.Decoder) any { return docTermsReq{Doc: index.DocID(d.String())} })

	wire.RegisterBinary(wire.KindCoreBase+12, handoffReq{},
		func(e *wire.Encoder, v any) {
			r := v.(handoffReq)
			e.Uint(uint64(len(r.Entries)))
			for _, ent := range r.Entries {
				e.String(ent.Term)
				encodePosting(e, ent.Posting)
				writeStrings(e, ent.ReplicaLocs)
			}
			e.Bool(r.Revert)
		},
		func(d *wire.Decoder) any {
			var r handoffReq
			r.Entries = readList(d, 3, func(ent *handoffEntry) {
				ent.Term = d.String()
				ent.Posting = decodePosting(d)
				ent.ReplicaLocs = readStrings[simnet.Addr](d)
			})
			r.Revert = d.Bool()
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+20, handoffResp{},
		func(e *wire.Encoder, v any) {
			r := v.(handoffResp)
			e.Uint(uint64(len(r.Existing)))
			for _, b := range r.Existing {
				e.Bool(b)
			}
		},
		func(d *wire.Decoder) any {
			return handoffResp{Existing: readList(d, 1, func(b *bool) { *b = d.Bool() })}
		})

	wire.RegisterBinary(wire.KindCoreBase+14, relocateReq{},
		func(e *wire.Encoder, v any) {
			r := v.(relocateReq)
			encodeItems(e, r.Items)
			e.String(string(r.From))
			e.String(string(r.To))
		},
		func(d *wire.Decoder) any {
			r := relocateReq{Items: decodeItems(d)}
			r.From = simnet.Addr(d.String())
			r.To = simnet.Addr(d.String())
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+16, repairDigestReq{},
		func(e *wire.Encoder, v any) {
			r := v.(repairDigestReq)
			e.Raw(r.Arc.From[:])
			e.Raw(r.Arc.To[:])
			e.Uint(r.Summary.Root)
			for _, b := range r.Summary.Buckets {
				e.Uint(b)
			}
		},
		func(d *wire.Decoder) any {
			var r repairDigestReq
			copy(r.Arc.From[:], d.Raw(chordid.Bytes))
			copy(r.Arc.To[:], d.Raw(chordid.Bytes))
			r.Summary.Root = d.Uint()
			for i := range r.Summary.Buckets {
				r.Summary.Buckets[i] = d.Uint()
			}
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+17, repairDigestResp{},
		func(e *wire.Encoder, v any) {
			r := v.(repairDigestResp)
			e.Bool(r.InSync)
			e.Uint(uint64(len(r.Buckets)))
			for _, b := range r.Buckets {
				e.Int(int64(b))
			}
			e.Uint(uint64(len(r.Local)))
			for t, dg := range r.Local {
				e.String(t)
				e.Uint(dg)
			}
		},
		func(d *wire.Decoder) any {
			var r repairDigestResp
			r.InSync = d.Bool()
			r.Buckets = readList(d, 1, func(b *int) { *b = int(d.Int()) })
			if n := d.Count(2); n > 0 {
				r.Local = make(map[string]uint64, n)
				for i := 0; i < n; i++ {
					t := d.String()
					dg := d.Uint()
					if d.Err() != nil {
						break
					}
					r.Local[t] = dg
				}
			}
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+18, repairPushReq{},
		func(e *wire.Encoder, v any) {
			r := v.(repairPushReq)
			e.Raw(r.Arc.From[:])
			e.Raw(r.Arc.To[:])
			e.Uint(uint64(len(r.Set)))
			for _, tp := range r.Set {
				e.String(tp.Term)
				encodeList(e, tp.Postings)
			}
		},
		func(d *wire.Decoder) any {
			var r repairPushReq
			copy(r.Arc.From[:], d.Raw(chordid.Bytes))
			copy(r.Arc.To[:], d.Raw(chordid.Bytes))
			// A term's length byte, the list's length and its block count.
			r.Set = readList(d, 3, func(tp *termPostings) {
				tp.Term = d.String()
				tp.Postings = decodeList(d)
			})
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+11, docTermsResp{},
		func(e *wire.Encoder, v any) {
			r := v.(docTermsResp)
			e.Bool(r.Found)
			e.Uint(uint64(len(r.TF)))
			for t, f := range r.TF {
				e.String(t)
				e.Int(int64(f))
			}
			e.Int(int64(r.Length))
		},
		func(d *wire.Decoder) any {
			var r docTermsResp
			r.Found = d.Bool()
			// Each map entry is at least one length byte + one varint.
			if n := d.Count(2); n > 0 {
				r.TF = make(map[string]int, n)
				for i := 0; i < n; i++ {
					t := d.String()
					f := int(d.Int())
					if d.Err() != nil {
						break
					}
					r.TF[t] = f
				}
			}
			r.Length = int(d.Int())
			return r
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

// encodeItems writes an item list — the one shared by sprite.publish,
// sprite.replica and sprite.relocate: its count, then per item the term, the
// flags and the posting, or only its document.
func encodeItems(e *wire.Encoder, items []publishItem) {
	e.Uint(uint64(len(items)))
	for _, it := range items {
		e.String(it.Term)
		var flags uint64
		if it.Withdraw {
			flags |= itemWithdraw
		}
		only := it.Posting == index.Posting{Doc: it.Posting.Doc}
		if only {
			flags |= itemDocOnly
		}
		e.Uint(flags)
		if only {
			e.String(string(it.Posting.Doc))
		} else {
			encodePosting(e, it.Posting)
		}
	}
}

// decodeItems reads encodeItems' form; an unknown flag fails the decode.
func decodeItems(d *wire.Decoder) []publishItem {
	// A term's length byte, the flags and a document's length byte.
	return readList(d, 3, func(it *publishItem) {
		it.Term = d.String()
		flags := d.Uint()
		if flags&^(itemWithdraw|itemDocOnly) != 0 {
			d.Fail(errors.New("core: unknown publish item flags"))
		}
		it.Withdraw = flags&itemWithdraw != 0
		if flags&itemDocOnly != 0 {
			it.Posting.Doc = index.DocID(d.String())
		} else {
			it.Posting = decodePosting(d)
		}
	})
}

// readList reads a count, then each element with read, stopping at the first
// error; min is the fewest bytes an element takes, and an empty list reads as
// nil.
func readList[T any](d *wire.Decoder, min int, read func(*T)) []T {
	n := d.Count(min)
	if n == 0 {
		return nil
	}
	list := make([]T, n)
	for i := range list {
		if read(&list[i]); d.Err() != nil {
			break
		}
	}
	return list
}

// encodeList ships a postings list's blocks exactly as the index stores them,
// behind their length; AppendBinary only adds the block framing. Encoding a
// list copies its blocks once, and sizing one only adds up their lengths.
func encodeList(e *wire.Encoder, l index.Encoded) {
	e.Blob(l.BinaryLen(), func(b []byte) []byte {
		b, _ = l.AppendBinary(b)
		return b
	})
}

// decodeList reads encodeList's form. UnmarshalBinary revalidates every
// block, so a corrupted frame poisons the decode instead of smuggling
// malformed blocks into a query or a replica index.
func decodeList(d *wire.Decoder) index.Encoded {
	var l index.Encoded
	n := d.Uint()
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("core: postings payload length %d exceeds %d remaining bytes", n, d.Remaining()))
		return l
	}
	if raw := d.Raw(int(n)); d.Err() == nil {
		if err := l.UnmarshalBinary(raw); err != nil {
			d.Fail(err)
		}
	}
	return l
}

func encodePosting(e *wire.Encoder, p index.Posting) {
	e.String(string(p.Doc))
	e.String(p.Owner)
	e.Int(int64(p.Freq))
	e.Int(int64(p.DocLen))
	e.String(p.Sketch)
}

func decodePosting(d *wire.Decoder) index.Posting {
	var p index.Posting
	p.Doc = index.DocID(d.String())
	p.Owner = d.String()
	p.Freq = int(d.Int())
	p.DocLen = int(d.Int())
	p.Sketch = d.String()
	return p
}
