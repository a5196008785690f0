package wire_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/wire"
)

// prototype returns a settable zero value of the registered payload type
// named name.
func prototype(b *testing.B, name string) reflect.Value {
	for _, proto := range wire.BinaryPrototypes() {
		if t := reflect.TypeOf(proto); t.Name() == name {
			return reflect.New(t).Elem()
		}
	}
	b.Fatalf("no registered payload type %s", name)
	return reflect.Value{}
}

// BenchmarkSize sizes the two payloads a query sends most: a get_postings
// reply of three lists of 300 postings each (three blocks apiece), and a
// next_hop request.
func BenchmarkSize(b *testing.B) {
	ix := index.NewInverted()
	terms := []string{"chord", "hash", "ring"}
	for _, term := range terms {
		for i := 0; i < 300; i++ {
			ix.Add(term, index.Posting{Doc: index.DocID(fmt.Sprintf("d%04d", i)), Owner: "peer7", Freq: 1 + i%4, DocLen: 60})
		}
	}
	reply := prototype(b, "getPostingsResp")
	items := reflect.MakeSlice(reply.FieldByName("Items").Type(), len(terms), len(terms))
	for i, term := range terms {
		items.Index(i).FieldByName("Postings").Set(reflect.ValueOf(ix.Encoded(term)))
		items.Index(i).FieldByName("IndexedDF").SetInt(300)
	}
	reply.FieldByName("Items").Set(items)

	hop := prototype(b, "nextHopReq")
	hop.FieldByName("Key").Set(reflect.ValueOf(chordid.HashKey("chord")))

	for _, c := range []struct {
		name    string
		payload any
	}{
		{"get_postings_reply", reply.Interface()},
		{"next_hop_request", hop.Interface()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sizeSink = wire.Size(c.payload)
			}
		})
	}
}

var sizeSink int
