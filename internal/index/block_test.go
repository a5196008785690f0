package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// drive applies the same pseudo-random add/remove/removeDoc sequence to both
// Store implementations, which must agree on every return value and, after
// every step, on how many documents and postings they hold.
func drive(seed int64, steps int, a, b Store) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		term := fmt.Sprintf("t%d", rng.Intn(12))
		doc := DocID(fmt.Sprintf("doc%04d", rng.Intn(400)))
		switch op := rng.Intn(10); {
		case op < 7:
			p := Posting{
				Doc:    doc,
				Owner:  fmt.Sprintf("peer%02d", rng.Intn(16)),
				Freq:   rng.Intn(40) + 1,
				DocLen: rng.Intn(200) + 1,
			}
			// Roughly half the postings carry a sketch, so the twin and
			// round-trip properties cover mixed sketched/unsketched blocks.
			if rng.Intn(2) == 0 {
				sk := make([]byte, rng.Intn(24)+1)
				rng.Read(sk)
				p.Sketch = string(sk)
			}
			a.Add(term, p)
			b.Add(term, p)
		case op < 9:
			ra, rb := a.Remove(term, doc), b.Remove(term, doc)
			if ra != rb {
				panic(fmt.Sprintf("Remove(%s,%s): plain=%v compressed=%v", term, doc, rb, ra))
			}
		default:
			ra, rb := a.RemoveDoc(doc), b.RemoveDoc(doc)
			if ra != rb {
				panic(fmt.Sprintf("RemoveDoc(%s): plain=%d compressed=%d", doc, rb, ra))
			}
		}
		if a.NumDocs() != b.NumDocs() || a.NumPostings() != b.NumPostings() {
			panic(fmt.Sprintf("step %d: (%d docs, %d postings) vs (%d, %d)",
				i, a.NumDocs(), a.NumPostings(), b.NumDocs(), b.NumPostings()))
		}
	}
}

// checkRoundTrip demands that an index-built list passes the wire's full
// validation and comes back from MarshalBinary → UnmarshalBinary unchanged.
func checkRoundTrip(t *testing.T, e Encoded, term string) {
	t.Helper()
	raw, err := e.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary(%q): %v", term, err)
	}
	var back Encoded
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatalf("UnmarshalBinary(%q): %v", term, err)
	}
	if back.Len() != e.Len() || back.Size() != e.Size() ||
		!reflect.DeepEqual(back.Slice(), e.Slice()) {
		t.Fatalf("term %q: round trip diverged", term)
	}
}

// storesEqual compares the complete observable state of two Stores.
func storesEqual(t *testing.T, a, b Store) {
	t.Helper()
	if a.NumTerms() != b.NumTerms() || a.NumDocs() != b.NumDocs() || a.NumPostings() != b.NumPostings() {
		t.Fatalf("counts diverge: (%d,%d,%d) vs (%d,%d,%d)",
			a.NumTerms(), a.NumDocs(), a.NumPostings(),
			b.NumTerms(), b.NumDocs(), b.NumPostings())
	}
	at, bt := a.Terms(), b.Terms()
	if !reflect.DeepEqual(at, bt) {
		t.Fatalf("terms diverge: %v vs %v", at, bt)
	}
	for _, term := range at {
		if a.DocFreq(term) != b.DocFreq(term) || a.Has(term) != b.Has(term) {
			t.Fatalf("term %q: df %d vs %d", term, a.DocFreq(term), b.DocFreq(term))
		}
		as, bs := a.PostingsSlice(term), b.PostingsSlice(term)
		if !reflect.DeepEqual(as, bs) {
			t.Fatalf("term %q postings diverge:\n  %v\n  %v", term, as, bs)
		}
		// The iterator must serve exactly the slice, in the same order.
		var it []Posting
		for p := range a.All(term) {
			it = append(it, p)
		}
		if !reflect.DeepEqual(it, as) {
			t.Fatalf("term %q: All diverges from PostingsSlice:\n  %v\n  %v", term, it, as)
		}
	}
}

// Property: the compressed index is behavior-identical to the plain
// reference under random add/remove/removeDoc sequences — same counts, same
// terms, same postings in the same served order.
func TestCompressedPlainTwin(t *testing.T) {
	f := func(seed int64) bool {
		ix, px := NewInverted(), NewPlain()
		drive(seed, 600, ix, px)
		storesEqual(t, ix, px)
		// The encoded form must survive a marshal round trip unchanged.
		for _, term := range ix.Terms() {
			checkRoundTrip(t, ix.Encoded(term), term)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Heavy ascending bulk load: blocks must seal at blockMax and stay packed,
// and a cursor must stream every posting back in order.
func TestBulkLoadBlocks(t *testing.T) {
	ix := NewInverted()
	const n = 5 * blockMax
	for i := 0; i < n; i++ {
		ix.Add("t", post(fmt.Sprintf("doc%06d", i), i%9+1, 100))
	}
	e := ix.Encoded("t")
	if e.Len() != n {
		t.Fatalf("Len = %d, want %d", e.Len(), n)
	}
	if e.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d, want 5 (sealed at %d)", e.NumBlocks(), blockMax)
	}
	cur := e.Cursor()
	for i := 0; i < n; i++ {
		p, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor ended at %d of %d (err %v)", i, n, cur.Err())
		}
		if want := DocID(fmt.Sprintf("doc%06d", i)); p.Doc != want {
			t.Fatalf("posting %d: doc %q, want %q", i, p.Doc, want)
		}
	}
	if _, ok := cur.Next(); ok || cur.Err() != nil {
		t.Fatalf("cursor should end cleanly, err=%v", cur.Err())
	}
}

// Out-of-order inserts must split oversized blocks instead of growing them
// without bound.
func TestInsertSplitsBlocks(t *testing.T) {
	ix := NewInverted()
	// Interleave: evens first, then odds, so every odd insert lands inside
	// an existing block's range.
	for i := 0; i < 2*blockMax; i += 2 {
		ix.Add("t", post(fmt.Sprintf("doc%06d", i), 1, 100))
	}
	for i := 1; i < 2*blockMax; i += 2 {
		ix.Add("t", post(fmt.Sprintf("doc%06d", i), 1, 100))
	}
	e := ix.Encoded("t")
	if e.Len() != 2*blockMax {
		t.Fatalf("Len = %d", e.Len())
	}
	prev := DocID("")
	count := 0
	for p := range e.All() {
		if count > 0 && p.Doc <= prev {
			t.Fatalf("order violated at %d: %q after %q", count, p.Doc, prev)
		}
		prev = p.Doc
		count++
	}
	if count != 2*blockMax {
		t.Fatalf("iterated %d postings, want %d", count, 2*blockMax)
	}
	for _, b := range ix.lists["t"].blocks {
		if b.n > blockMax {
			t.Fatalf("block holds %d postings, max %d", b.n, blockMax)
		}
	}
}

// NextBytes is the zero-string scoring path; it must agree with Next.
func TestCursorNextBytes(t *testing.T) {
	ix := NewInverted()
	for i := 0; i < 300; i++ {
		ix.Add("t", post(fmt.Sprintf("doc%05d", i), i%7+1, 50+i%50))
	}
	want := ix.PostingsSlice("t")
	cur := ix.Cursor("t")
	for i := 0; ; i++ {
		doc, freq, docLen, ok := cur.NextBytes()
		if !ok {
			if i != len(want) {
				t.Fatalf("ended at %d of %d (err %v)", i, len(want), cur.Err())
			}
			break
		}
		w := want[i]
		if DocID(doc) != w.Doc || freq != w.Freq || docLen != w.DocLen {
			t.Fatalf("posting %d: (%s,%d,%d), want %+v", i, doc, freq, docLen, w)
		}
	}
}

// Sketches must survive the block codec byte-for-byte, via both the Posting
// field and the cursor's zero-copy SketchBytes accessor, across block
// boundaries and mixed sketched/unsketched postings.
func TestBlockSketchRoundTrip(t *testing.T) {
	ix := NewInverted()
	rng := rand.New(rand.NewSource(17))
	want := map[DocID]string{}
	const n = 3 * blockMax
	for i := 0; i < n; i++ {
		p := post(fmt.Sprintf("doc%06d", i), i%9+1, 100)
		if i%3 != 0 {
			sk := make([]byte, rng.Intn(130)+1)
			rng.Read(sk)
			p.Sketch = string(sk)
		}
		want[p.Doc] = p.Sketch
		ix.Add("t", p)
	}
	check := func(e Encoded, label string) {
		t.Helper()
		cur := e.Cursor()
		count := 0
		for p, ok := cur.Next(); ok; p, ok = cur.Next() {
			if p.Sketch != want[p.Doc] {
				t.Fatalf("%s: doc %q sketch diverged", label, p.Doc)
			}
			if string(cur.SketchBytes()) != p.Sketch {
				t.Fatalf("%s: doc %q SketchBytes diverges from Posting.Sketch", label, p.Doc)
			}
			if p.Sketch == "" && cur.SketchBytes() != nil {
				t.Fatalf("%s: doc %q empty sketch not nil from SketchBytes", label, p.Doc)
			}
			count++
		}
		if cur.Err() != nil || count != n {
			t.Fatalf("%s: decoded %d of %d postings, err %v", label, count, n, cur.Err())
		}
	}
	e := ix.Encoded("t")
	check(e, "direct")
	raw, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Encoded
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	check(back, "round-tripped")
	// A republish that swaps the sketch must win, same as freq metadata.
	ix.Add("t", Posting{Doc: "doc000001", Owner: "peer-doc000001", Freq: 1, DocLen: 100, Sketch: "fresh"})
	if got := ix.PostingsSlice("t")[1].Sketch; got != "fresh" {
		t.Fatalf("republish kept stale sketch %q", got)
	}
}

// The zero Encoded must marshal and unmarshal cleanly — it is what an empty
// postings response carries.
func TestEncodedZeroRoundTrip(t *testing.T) {
	var e Encoded
	raw, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Encoded
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, back) {
		t.Fatalf("zero round trip: %+v vs %+v", e, back)
	}
	if back.Slice() != nil || back.Len() != 0 {
		t.Fatalf("zero Encoded decodes postings: %v", back.Slice())
	}
}

// FuzzPostingsBlock pins the decode safety contract: valid encodings round
// trip cleanly, and truncated, bit-flipped, or arbitrary garbage input never
// panics — it either decodes or returns an error.
func FuzzPostingsBlock(f *testing.F) {
	seedIx := NewInverted()
	for i := 0; i < 40; i++ {
		seedIx.Add("t", post(fmt.Sprintf("doc%04d", i*3), i%9, 100+i))
	}
	seed, _ := seedIx.Encoded("t").MarshalBinary()
	f.Add(seed, uint8(0), uint16(0))
	f.Add(seed, uint8(1), uint16(7))
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add([]byte{1, 5, 0, 0, 0, 0, 0}, uint8(0), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8, pos uint16) {
		mutated := append([]byte(nil), data...)
		switch mode % 3 {
		case 1: // truncate
			if len(mutated) > 0 {
				mutated = mutated[:int(pos)%len(mutated)]
			}
		case 2: // bit flip
			if len(mutated) > 0 {
				mutated[int(pos)%len(mutated)] ^= 1 << (pos % 8)
			}
		}
		var e Encoded
		if err := e.UnmarshalBinary(mutated); err != nil {
			return
		}
		// Accepted input must decode fully and consistently: the cursor
		// yields exactly Len postings in strictly ascending doc order with
		// no error, and re-marshaling reproduces the bytes.
		cur := e.Cursor()
		var prev DocID
		count := 0
		for p, ok := cur.Next(); ok; p, ok = cur.Next() {
			if count > 0 && p.Doc <= prev {
				t.Fatalf("accepted block out of order: %q after %q", p.Doc, prev)
			}
			prev = p.Doc
			count++
		}
		if cur.Err() != nil {
			t.Fatalf("validated payload failed to decode: %v", cur.Err())
		}
		if count != e.Len() {
			t.Fatalf("decoded %d postings, Len says %d", count, e.Len())
		}
		out, _ := e.MarshalBinary()
		if !reflect.DeepEqual(out, mutated) {
			t.Fatalf("re-marshal diverged:\n  in  %x\n  out %x", mutated, out)
		}
	})
}
