package core

import (
	"encoding/hex"
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/wire"
)

// The wire forms of the learning sweep's list payloads, byte for byte, and
// their round trip; a batch of one keeps the simulated size a single poll or
// publish always had.
func TestLearnCodecsGoldenAndRoundTrip(t *testing.T) {
	posting := index.Posting{Doc: "d1", Owner: "p0", Freq: 3, DocLen: 7}
	one := publishReq{Items: []publishItem{{Term: "ab", Posting: posting}}, CheckArc: true}
	poll := pollReq{Docs: []pollDoc{{Doc: "d1", DocTerms: []string{"ab", "cd"}, Terms: []pollTerm{{Term: "ab", Since: 300}}}}, CheckArc: true}
	answer := pollResp{Items: []pollResult{{Queries: [][]string{{"ab", "x"}}, NewSince: 5, IndexedDF: 2}, {Refused: true}}}
	for _, c := range []struct {
		name   string
		value  any
		golden string
	}{
		// count, then per item the term and the posting (doc, owner, zig-zag
		// freq and length, sketch), then the arc-check flag.
		{"publishReq", one, "0010" + "01" + "026162" + "026431" + "027030" + "06" + "0e" + "00" + "01"},
		{"publishReq/empty", publishReq{}, "0010" + "00" + "00"},
		// the refused positions, zig-zag.
		{"publishResp", publishResp{Refused: []int{0, 2}}, "0027" + "02" + "00" + "04"},
		{"publishResp/none", publishResp{}, "0027" + "00"},
		// count, then per document its ID, its terms and its polled terms,
		// each with its watermark (300 = ac 02), then the arc-check flag.
		{"pollReq", poll, "0016" + "01" + "026431" + "02" + "026162" + "026364" + "01" + "026162" + "ac02" + "01"},
		// count, then per item the refusal flag, the queries, NewSince and the
		// zig-zag IndexedDF.
		{"pollResp", answer, "0017" + "02" + "00" + "01" + "02" + "026162" + "0178" + "05" + "04" + "01" + "00" + "00" + "00"},
	} {
		enc, ok := wire.AppendBinary(nil, c.value)
		if !ok {
			t.Fatalf("%s: no binary codec", c.name)
		}
		if got := hex.EncodeToString(enc); got != c.golden {
			t.Fatalf("%s encodes as\n  %s\nwant\n  %s", c.name, got, c.golden)
		}
		dec, err := wire.DecodeBinary(enc)
		if err != nil || !reflect.DeepEqual(dec, c.value) {
			t.Fatalf("%s: binary round trip = %#v, %v", c.name, dec, err)
		}
	}

	// A single item's simulated size is the one it had before batching.
	if got, want := one.size(), len("ab")+posting.WireSize(); got != want {
		t.Fatalf("publish of one item: Size %d, want %d", got, want)
	}
	if got, want := poll.size(), len("ab")+sizeTerms([]string{"ab", "cd"})+8; got != want {
		t.Fatalf("poll of one item: Size %d, want %d", got, want)
	}
	if got, want := (pollResp{Items: answer.Items[:1]}).size(), 8+sizeTerms([]string{"ab", "x"}); got != want {
		t.Fatalf("poll reply of one item: Size %d, want %d", got, want)
	}
}

// The wire forms of the batched postings fetch, byte for byte, and their round
// trip; a request or reply of one term keeps the simulated size a single
// fetch always had, so routed fetches cost the bytes they did.
func TestFetchCodecsGoldenAndRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name   string
		value  any
		golden string
	}{
		// the terms, the query, the record and arc-check flags.
		{"getPostingsReq", getPostingsReq{Terms: []string{"ab", "cd"}, Query: []string{"ab", "cd", "x"}, Record: true, CheckArc: true},
			"0013" + "02" + "026162" + "026364" + "03" + "026162" + "026364" + "0178" + "01" + "01"},
		// count, then per item the refusal flag, the list (length, then an
		// empty block sequence), the zig-zag IndexedDF and the replica flag.
		{"getPostingsResp", getPostingsResp{Items: []postingsList{{Refused: true}, {IndexedDF: 2, FromReplica: true}}},
			"0014" + "02" + "01" + "01" + "00" + "00" + "00" + "00" + "01" + "00" + "04" + "01"},
	} {
		enc, ok := wire.AppendBinary(nil, c.value)
		if !ok {
			t.Fatalf("%s: no binary codec", c.name)
		}
		if got := hex.EncodeToString(enc); got != c.golden {
			t.Fatalf("%s encodes as\n  %s\nwant\n  %s", c.name, got, c.golden)
		}
		dec, err := wire.DecodeBinary(enc)
		if err != nil || !reflect.DeepEqual(dec, c.value) {
			t.Fatalf("%s: binary round trip = %#v, %v", c.name, dec, err)
		}
	}

	if got, want := (getPostingsReq{Terms: []string{"ab"}, Query: []string{"ab", "x"}}).size(), len("ab")+sizeTerms([]string{"ab", "x"}); got != want {
		t.Fatalf("request for one term: Size %d, want %d", got, want)
	}
	if got, want := (getPostingsReq{Terms: []string{"ab"}}).size(), len("ab")+1; got != want {
		t.Fatalf("request for one term without a query: Size %d, want %d", got, want)
	}
	ix := index.NewInverted()
	ix.Add("ab", index.Posting{Doc: "d1", Owner: "p0", Freq: 3, DocLen: 7})
	list := ix.Encoded("ab")
	if got, want := (getPostingsResp{Items: []postingsList{{Postings: list, IndexedDF: 1}}}).size(), list.Size()+8; got != want {
		t.Fatalf("reply of one list: Size %d, want %d", got, want)
	}
}
