package core

import (
	"fmt"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// Binary codecs for SPRITE's application payloads — the postings fetches,
// publishes/unpublishes, polls, and replica pushes that carry nearly all of
// the system's bytes (§1's index-construction and maintenance cost). Every
// payload type core sends is registered here or in similar.go: over a
// socket, a type without a codec is an encode error at the caller. The
// decoders normalize empty slices and maps to nil, as gob does.
func init() {
	wire.RegisterBinary(wire.KindCoreBase+0, publishReq{},
		func(e *wire.Encoder, v any) {
			r := v.(publishReq)
			e.String(r.Term)
			encodePosting(e, r.Posting)
		},
		func(d *wire.Decoder) any {
			var r publishReq
			r.Term = d.String()
			r.Posting = decodePosting(d)
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+1, unpublishReq{},
		func(e *wire.Encoder, v any) {
			r := v.(unpublishReq)
			e.String(r.Term)
			e.String(string(r.Doc))
		},
		func(d *wire.Decoder) any {
			var r unpublishReq
			r.Term = d.String()
			r.Doc = index.DocID(d.String())
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+2, unpublishResp{},
		func(e *wire.Encoder, v any) {
			r := v.(unpublishResp)
			e.Uint(uint64(len(r.StaleReplicas)))
			for _, a := range r.StaleReplicas {
				e.String(string(a))
			}
		},
		func(d *wire.Decoder) any {
			var r unpublishResp
			if n := d.Count(1); n > 0 {
				r.StaleReplicas = make([]simnet.Addr, n)
				for i := range r.StaleReplicas {
					r.StaleReplicas[i] = simnet.Addr(d.String())
				}
			}
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+3, getPostingsReq{},
		func(e *wire.Encoder, v any) {
			r := v.(getPostingsReq)
			e.String(r.Term)
			e.StringSlice(r.Query)
			e.Bool(r.Record)
		},
		func(d *wire.Decoder) any {
			var r getPostingsReq
			r.Term = d.String()
			r.Query = d.StringSlice()
			r.Record = d.Bool()
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+4, getPostingsResp{},
		func(e *wire.Encoder, v any) {
			r := v.(getPostingsResp)
			// The compressed blocks ship exactly as the indexing peer stores
			// them; MarshalBinary only adds the block framing.
			raw, _ := r.Postings.MarshalBinary()
			e.Uint(uint64(len(raw)))
			e.Raw(raw)
			e.Int(int64(r.IndexedDF))
			e.Bool(r.FromReplica)
		},
		func(d *wire.Decoder) any {
			var r getPostingsResp
			n := d.Uint()
			if n > uint64(d.Remaining()) {
				d.Fail(fmt.Errorf("core: postings payload length %d exceeds %d remaining bytes", n, d.Remaining()))
				return r
			}
			if raw := d.Raw(int(n)); d.Err() == nil {
				// UnmarshalBinary revalidates every block, so a corrupted
				// frame poisons the decode instead of smuggling malformed
				// blocks into the query path.
				if err := r.Postings.UnmarshalBinary(raw); err != nil {
					d.Fail(err)
					return r
				}
			}
			r.IndexedDF = int(d.Int())
			r.FromReplica = d.Bool()
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+5, cacheQueryReq{},
		func(e *wire.Encoder, v any) { e.StringSlice(v.(cacheQueryReq).Query) },
		func(d *wire.Decoder) any { return cacheQueryReq{Query: d.StringSlice()} })

	wire.RegisterBinary(wire.KindCoreBase+6, pollReq{},
		func(e *wire.Encoder, v any) {
			r := v.(pollReq)
			e.String(r.Term)
			e.String(string(r.Doc))
			e.StringSlice(r.DocTerms)
			e.Uint(r.Since)
		},
		func(d *wire.Decoder) any {
			var r pollReq
			r.Term = d.String()
			r.Doc = index.DocID(d.String())
			r.DocTerms = d.StringSlice()
			r.Since = d.Uint()
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+7, pollResp{},
		func(e *wire.Encoder, v any) {
			r := v.(pollResp)
			e.Uint(uint64(len(r.Queries)))
			for _, q := range r.Queries {
				e.StringSlice(q)
			}
			e.Uint(r.NewSince)
			e.Int(int64(r.IndexedDF))
		},
		func(d *wire.Decoder) any {
			var r pollResp
			if n := d.Count(1); n > 0 {
				r.Queries = make([][]string, n)
				for i := range r.Queries {
					r.Queries[i] = d.StringSlice()
				}
			}
			r.NewSince = d.Uint()
			r.IndexedDF = int(d.Int())
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+8, replicaReq{},
		func(e *wire.Encoder, v any) {
			r := v.(replicaReq)
			e.String(r.Term)
			encodePosting(e, r.Posting)
		},
		func(d *wire.Decoder) any {
			var r replicaReq
			r.Term = d.String()
			r.Posting = decodePosting(d)
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+9, replicaDropReq{},
		func(e *wire.Encoder, v any) {
			r := v.(replicaDropReq)
			e.String(r.Term)
			e.String(string(r.Doc))
		},
		func(d *wire.Decoder) any {
			var r replicaDropReq
			r.Term = d.String()
			r.Doc = index.DocID(d.String())
			return r
		})

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
				e.Uint(uint64(len(ent.ReplicaLocs)))
				for _, a := range ent.ReplicaLocs {
					e.String(string(a))
				}
			}
		},
		func(d *wire.Decoder) any {
			var r handoffReq
			if n := d.Count(3); n > 0 {
				r.Entries = make([]handoffEntry, n)
				for i := range r.Entries {
					r.Entries[i].Term = d.String()
					r.Entries[i].Posting = decodePosting(d)
					if m := d.Count(1); m > 0 {
						r.Entries[i].ReplicaLocs = make([]simnet.Addr, m)
						for j := range r.Entries[i].ReplicaLocs {
							r.Entries[i].ReplicaLocs[j] = simnet.Addr(d.String())
						}
					}
					if d.Err() != nil {
						break
					}
				}
			}
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
			var r handoffResp
			if n := d.Count(1); n > 0 {
				r.Existing = make([]bool, n)
				for i := range r.Existing {
					r.Existing[i] = d.Bool()
				}
			}
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+13, handoffDropReq{},
		func(e *wire.Encoder, v any) {
			r := v.(handoffDropReq)
			e.String(r.Term)
			e.String(string(r.Doc))
		},
		func(d *wire.Decoder) any {
			var r handoffDropReq
			r.Term = d.String()
			r.Doc = index.DocID(d.String())
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+14, relocateReq{},
		func(e *wire.Encoder, v any) {
			r := v.(relocateReq)
			e.String(r.Term)
			e.String(string(r.Doc))
			e.String(string(r.From))
			e.String(string(r.To))
		},
		func(d *wire.Decoder) any {
			var r relocateReq
			r.Term = d.String()
			r.Doc = index.DocID(d.String())
			r.From = simnet.Addr(d.String())
			r.To = simnet.Addr(d.String())
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+15, relocateResp{},
		func(e *wire.Encoder, v any) { e.Bool(v.(relocateResp).OK) },
		func(d *wire.Decoder) any { return relocateResp{OK: d.Bool()} })

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
			if n := d.Count(1); n > 0 {
				r.Buckets = make([]int, n)
				for i := range r.Buckets {
					r.Buckets[i] = int(d.Int())
				}
			}
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
				e.Uint(uint64(len(tp.Postings)))
				for _, p := range tp.Postings {
					encodePosting(e, p)
				}
			}
		},
		func(d *wire.Decoder) any {
			var r repairPushReq
			copy(r.Arc.From[:], d.Raw(chordid.Bytes))
			copy(r.Arc.To[:], d.Raw(chordid.Bytes))
			if n := d.Count(2); n > 0 {
				r.Set = make([]termPostings, n)
				for i := range r.Set {
					r.Set[i].Term = d.String()
					if m := d.Count(4); m > 0 {
						r.Set[i].Postings = make([]index.Posting, m)
						for j := range r.Set[i].Postings {
							r.Set[i].Postings[j] = decodePosting(d)
						}
					}
					if d.Err() != nil {
						break
					}
				}
			}
			return r
		})

	wire.RegisterBinary(wire.KindCoreBase+19, replicaRetireReq{},
		func(e *wire.Encoder, v any) {
			r := v.(replicaRetireReq)
			e.String(string(r.Holder))
			e.String(r.Term)
			e.Uint(uint64(len(r.Docs)))
			for _, doc := range r.Docs {
				e.String(string(doc))
			}
		},
		func(d *wire.Decoder) any {
			var r replicaRetireReq
			r.Holder = simnet.Addr(d.String())
			r.Term = d.String()
			if n := d.Count(1); n > 0 {
				r.Docs = make([]index.DocID, n)
				for i := range r.Docs {
					r.Docs[i] = index.DocID(d.String())
				}
			}
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
