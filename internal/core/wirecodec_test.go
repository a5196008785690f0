package core

import (
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/repair"
	"github.com/spritedht/sprite/internal/wire"
)

// The wire forms of the learning sweep's list payloads, byte for byte, and
// their round trip.
func TestLearnCodecsGoldenAndRoundTrip(t *testing.T) {
	posting := index.Posting{Doc: "d1", Owner: "p0", Freq: 3, DocLen: 7}
	one := publishReq{Items: []publishItem{{Term: "ab", Posting: posting}}, CheckArc: true}
	poll := pollReq{Docs: []pollDoc{{Doc: "d1", DocTerms: []string{"ab", "cd"}, Terms: []pollTerm{{Term: "ab", Since: 300}}}}, CheckArc: true}
	answer := pollResp{Items: []pollResult{{Queries: []polledQuery{{Terms: []string{"ab", "x"}, Copies: 300}}, NewSince: 5, IndexedDF: 2}, {Refused: true}}}
	missing := pollResp{Items: []pollResult{{Missing: true, Queries: []polledQuery{{Terms: []string{"y"}, Copies: 1}}, NewSince: 5}, {Refused: true}}}
	pull := publishReq{Items: []publishItem{{Term: "ab", Posting: index.Posting{Doc: "d1"}, Withdraw: true}}}
	checkGoldens(t, []goldenCase{
		// count, then per item the term, the flags (withdraw 1, posting is
		// its document only 2) and the posting (doc, owner, zig-zag freq and
		// length, sketch) — or only its doc — then the arc-check flag.
		{"publishReq", one, "0010" + "01" + "026162" + "00" + "026431" + "027030" + "06" + "0e" + "00" + "01"},
		{"publishReq/empty", publishReq{}, "0010" + "00" + "00"},
		{"publishReq/withdraw", pull, "0010" + "01" + "026162" + "03" + "026431" + "00"},
		// count, then per answer the zig-zag position and the refusal flag.
		{"publishResp", publishResp{Answers: []publishAnswer{{Item: 0, Refused: true}, {Item: 2, Refused: true}}}, "0027" + "02" + "00" + "01" + "04" + "01"},
		{"publishResp/none", publishResp{}, "0027" + "00"},
		// count, then per document its ID, its terms and its polled terms,
		// each with its watermark (300 = ac 02), then the arc-check flag.
		{"pollReq", poll, "0016" + "01" + "026431" + "02" + "026162" + "026364" + "01" + "026162" + "ac02" + "01"},
		// count, then per item the flags (refused 1, missing 2), the queries
		// (each its terms, then its issuance count: 300 = ac 02), NewSince
		// and the zig-zag IndexedDF. An item with no flag set is the bytes a
		// refusal bool wrote before there was a second flag.
		{"pollResp", answer, "0017" + "02" + "00" + "01" + "02" + "026162" + "0178" + "ac02" + "05" + "04" + "01" + "00" + "00" + "00"},
		{"pollResp/missing", missing, "0017" + "02" + "02" + "01" + "01" + "0179" + "01" + "05" + "00" + "01" + "00" + "00" + "00"},
	})

	// A query count of zero would raise max qScore without adding QF, and
	// one above math.MaxInt32 would not fit QF: both are errors.
	for _, count := range []string{"00", "8080808008"} {
		raw, _ := hex.DecodeString("0017" + "01" + "00" + "01" + "01" + "0178" + count + "05" + "00")
		if _, err := wire.DecodeBinary(raw); err == nil || !strings.Contains(err.Error(), "count") {
			t.Fatalf("poll reply with query count %s: %v, want a count error", count, err)
		}
	}
	raw, _ := hex.DecodeString("0017" + "01" + "00" + "01" + "01" + "0178" + "ffffffff07" + "05" + "00")
	if _, err := wire.DecodeBinary(raw); err != nil {
		t.Fatalf("poll reply with query count math.MaxInt32: %v", err)
	}

	// A flag the codec does not know is an error, not a silently dropped bit.
	if _, err := wire.DecodeBinary([]byte{0x00, 0x17, 0x01, 0x04, 0x00, 0x00, 0x00}); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("poll reply with an unknown flag: %v, want a flags error", err)
	}
	if _, err := wire.DecodeBinary([]byte{0x00, 0x10, 0x01, 0x02, 0x61, 0x62, 0x07, 0x02, 0x64, 0x31, 0x00}); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("publish item with an unknown flag: %v, want a flags error", err)
	}

}

// The wire forms of the batched postings fetch, byte for byte, and their round
// trip.
func TestFetchCodecsGoldenAndRoundTrip(t *testing.T) {
	checkGoldens(t, []goldenCase{
		// the terms, the query, the record and arc-check flags.
		{"getPostingsReq", getPostingsReq{Terms: []string{"ab", "cd"}, Query: []string{"ab", "cd", "x"}, Record: true, CheckArc: true},
			"0013" + "02" + "026162" + "026364" + "03" + "026162" + "026364" + "0178" + "01" + "01"},
		// count, then per item the refusal flag, the list (length, then an
		// empty block sequence), the zig-zag IndexedDF and the replica flag.
		{"getPostingsResp", getPostingsResp{Items: []postingsList{{Refused: true}, {IndexedDF: 2, FromReplica: true}}},
			"0014" + "02" + "01" + "01" + "00" + "00" + "00" + "00" + "01" + "00" + "04" + "01"},
		// the query.
		{"cacheQueryReq", cacheQueryReq{Query: []string{"ab", "x"}}, "0015" + "02" + "026162" + "0178"},
	})

}

// The wire forms of the relocate and the handoff, byte for byte, and their
// round trip: a relocate is publishReq's item list, its items in the
// document-only form.
func TestRelocateHandoffCodecsGoldenAndRoundTrip(t *testing.T) {
	posting := index.Posting{Doc: "d1", Owner: "p0", Freq: 3, DocLen: 7}
	relocate := relocateReq{Items: []publishItem{{Term: "ab", Posting: index.Posting{Doc: "d1"}}, {Term: "cd", Posting: index.Posting{Doc: "d2"}}}, From: "p1", To: "p2"}
	revert := handoffReq{Entries: []handoffEntry{{Term: "ab", Posting: index.Posting{Doc: "d1"}}}, Revert: true}
	checkGoldens(t, []goldenCase{
		// the item list, every item document-only, then From and To.
		{"relocateReq", relocate, "001e" + "02" + "026162" + "02" + "026431" + "026364" + "02" + "026432" + "027031" + "027032"},
		// count, then per entry the term and the posting, then the revert
		// flag.
		{"handoffReq", handoffReq{Entries: []handoffEntry{{Term: "ab", Posting: posting}}},
			"001c" + "01" + "026162" + "026431" + "027030" + "06" + "0e" + "00" + "00"},
		{"handoffReq/revert", revert, "001c" + "01" + "026162" + "026431" + "00" + "00" + "00" + "00" + "01"},
		// count, then per entry whether the receiver already held it.
		{"handoffResp", handoffResp{Existing: []bool{true, false}}, "0024" + "02" + "01" + "00"},
	})

}

// The wire forms of query expansion's term-vector fetch and of anti-entropy's
// three payloads, byte for byte, and their round trip. A map goes out in no
// particular order, so each map here holds one entry.
func TestExpandRepairCodecsGoldenAndRoundTrip(t *testing.T) {
	ix := index.NewInverted()
	ix.Add("ab", index.Posting{Doc: "d1", Owner: "p0", Freq: 3, DocLen: 7})
	list, _ := ix.Encoded("ab").MarshalBinary()
	arc := chordid.Arc{From: chordid.FromUint64(1), To: chordid.FromUint64(2)}
	ids := hex.EncodeToString(arc.From[:]) + hex.EncodeToString(arc.To[:])
	summary := repair.Summary{Root: 300}
	summary.Buckets[1] = 5
	checkGoldens(t, []goldenCase{
		// the document.
		{"docTermsReq", docTermsReq{Doc: "d1"}, "001a" + "026431"},
		// the found flag, the term frequencies (count, then per term the
		// term and its zig-zag frequency) and the zig-zag length.
		{"docTermsResp", docTermsResp{Found: true, TF: map[string]int{"ab": 3}, Length: 7}, "001b" + "01" + "01" + "026162" + "06" + "0e"},
		{"docTermsResp/missing", docTermsResp{}, "001b" + "00" + "00" + "00"},
		// the arc's two IDs, then the root and every bucket of the summary.
		{"repairDigestReq", repairDigestReq{Arc: arc, Summary: summary}, "0020" + ids + "ac02" + "00" + "05" + strings.Repeat("00", repair.Buckets-2)},
		// the in-sync flag, the divergent buckets (count, zig-zag each) and
		// the local digests (count, then per term the term and its digest).
		{"repairDigestResp", repairDigestResp{Buckets: []int{1, 3}, Local: map[string]uint64{"ab": 300}}, "0021" + "00" + "02" + "02" + "06" + "01" + "026162" + "ac02"},
		{"repairDigestResp/in sync", repairDigestResp{InSync: true}, "0021" + "01" + "00" + "00"},
		// the arc's two IDs, then count, then per term the term and its
		// list behind the list's length.
		{"repairPushReq", repairPushReq{Arc: arc, Set: []termPostings{{Term: "ab", Postings: ix.Encoded("ab")}}}, "0022" + ids + "01" + "026162" + "10" + hex.EncodeToString(list)},
		// a dropped term goes with an empty list.
		{"repairPushReq/drop", repairPushReq{Arc: arc, Set: []termPostings{{Term: "cd"}}}, "0022" + ids + "01" + "026364" + "0100"},
	})
}

// goldenCase is a payload and its wire form, kind included, in hex.
type goldenCase struct {
	name   string
	value  any
	golden string
}

// checkGoldens encodes each case's value, compares the bytes with its golden
// string and decodes them back to the value.
func checkGoldens(t *testing.T, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
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
}

// Retired kinds stay unregistered: a frame naming sprite.unpublish's
// (+1 / +2), sprite.replica's (+8), sprite.replica_drop's (+9),
// sprite.repair.handoff_drop's (+13),
// the one-entry relocate reply's (+15), sprite.repair.retire's (+19) or
// sprite.sketch_scan's (+21 / +22) is refused as unknown, so no later payload
// can be mistaken for one of theirs.
func TestRetiredKindsUnregistered(t *testing.T) {
	for _, k := range []uint16{1, 2, 8, 9, 13, 15, 19, 21, 22} {
		frame := binary.BigEndian.AppendUint16(nil, wire.KindCoreBase+k)
		if _, err := wire.DecodeBinary(frame); err == nil || !strings.Contains(err.Error(), "unknown binary kind") {
			t.Errorf("KindCoreBase+%d: DecodeBinary err = %v, want an unknown kind", k, err)
		}
	}
}
