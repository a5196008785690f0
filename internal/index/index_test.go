package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func post(doc string, freq, dlen int) Posting {
	return Posting{Doc: DocID(doc), Owner: "peer-" + doc, Freq: freq, DocLen: dlen}
}

func TestAddAndPostings(t *testing.T) {
	ix := NewInverted()
	ix.Add("chord", post("d2", 1, 50))
	ix.Add("chord", post("d1", 3, 100))
	got := ix.PostingsSlice("chord")
	if len(got) != 2 {
		t.Fatalf("postings = %v", got)
	}
	// Served order is ascending doc ID regardless of insertion order — the
	// ordering contract both Store implementations share.
	if got[0].Doc != "d1" || got[0].Freq != 3 || got[1].Doc != "d2" {
		t.Fatalf("postings = %+v, want ascending doc order", got)
	}
}

func TestAddIsIdempotentPerDoc(t *testing.T) {
	ix := NewInverted()
	ix.Add("term", post("d1", 3, 100))
	ix.Add("term", post("d1", 5, 120)) // republish with fresh metadata
	got := ix.PostingsSlice("term")
	if len(got) != 1 {
		t.Fatalf("republish duplicated the posting: %v", got)
	}
	if got[0].Freq != 5 || got[0].DocLen != 120 {
		t.Fatalf("republish did not refresh metadata: %+v", got[0])
	}
}

func TestEncodedSnapshotImmutable(t *testing.T) {
	ix := NewInverted()
	ix.Add("t", post("d1", 1, 10))
	ix.Add("t", post("d2", 2, 20))
	snap := ix.Encoded("t")

	// Mutations are copy-on-write at block granularity: a retained snapshot
	// must keep decoding the state at snapshot time while fresh reads see
	// the new state.
	ix.Add("t", post("d1", 999, 10)) // in-place block rewrite would corrupt snap
	if got := snap.Slice(); got[0].Freq != 1 {
		t.Fatalf("snapshot mutated by republish: %+v", got[0])
	}
	if got := ix.PostingsSlice("t")[0].Freq; got != 999 {
		t.Fatalf("fresh read missed republish: freq = %d", got)
	}

	snap = ix.Encoded("t")
	ix.Remove("t", "d1") // in-place splice would corrupt snap
	if got := snap.Slice(); len(got) != 2 || got[0].Doc != "d1" || got[1].Doc != "d2" {
		t.Fatalf("snapshot mutated by Remove: %v", got)
	}
	if got := ix.PostingsSlice("t"); len(got) != 1 || got[0].Doc != "d2" {
		t.Fatalf("fresh read missed Remove: %v", got)
	}

	snap = ix.Encoded("t")
	cur := snap.Cursor() // a cursor opened before the mutation must survive it too
	ix.RemoveDoc("d2")
	if got := snap.Slice(); len(got) != 1 || got[0].Doc != "d2" {
		t.Fatalf("snapshot mutated by RemoveDoc: %v", got)
	}
	if p, ok := cur.Next(); !ok || p.Doc != "d2" {
		t.Fatalf("pre-mutation cursor = %+v, %v", p, ok)
	}
	if got := ix.PostingsSlice("t"); got != nil {
		t.Fatalf("fresh read missed RemoveDoc: %v", got)
	}

	// The same, byte for byte, for each of the four edits the splice makes
	// to the block a snapshot was taken from.
	ix = NewInverted()
	for i := 0; i < 40; i++ {
		ix.Add("t", Posting{Doc: DocID(fmt.Sprintf("doc%04d", i*10)), Owner: "peer", Freq: i%5 + 1, DocLen: 90 + i})
	}
	edits := []struct {
		name string
		do   func()
	}{
		{"append", func() { ix.Add("t", Posting{Doc: "doc9999", Owner: "peer", Freq: 2, DocLen: 7}) }},
		{"mid-block insert", func() { ix.Add("t", Posting{Doc: "doc0105", Owner: "peer", Freq: 2, DocLen: 7}) }},
		{"replace", func() { ix.Add("t", Posting{Doc: "doc0200", Owner: "peer", Freq: 77, DocLen: 7}) }},
		{"remove", func() { ix.Remove("t", "doc0300") }},
	}
	for _, e := range edits {
		snap := ix.Encoded("t")
		cur := snap.Cursor()
		want, _ := snap.MarshalBinary()
		wantPostings := snap.Slice()
		was := ix.rebuilds
		e.do()
		if ix.rebuilds != was {
			t.Fatalf("%s went through rebuild; it is a splice case", e.name)
		}
		if got, _ := snap.MarshalBinary(); !bytes.Equal(got, want) {
			t.Fatalf("%s moved the bytes of a snapshot taken before it", e.name)
		}
		var got []Posting
		for p, ok := cur.Next(); ok; p, ok = cur.Next() {
			got = append(got, p)
		}
		if cur.Err() != nil || !slices.Equal(got, wantPostings) {
			t.Fatalf("%s disturbed a cursor opened before it (err %v)", e.name, cur.Err())
		}
		if now, _ := ix.Encoded("t").MarshalBinary(); bytes.Equal(now, want) {
			t.Fatalf("%s did not reach a fresh read", e.name)
		}
		checkCanonical(t, ix, "t")
	}
}

func TestPostingsMissingTerm(t *testing.T) {
	ix := NewInverted()
	if got := ix.PostingsSlice("ghost"); got != nil {
		t.Fatalf("PostingsSlice(missing) = %v, want nil", got)
	}
	for range ix.All("ghost") {
		t.Fatal("All(missing) yielded a posting")
	}
	if e := ix.Encoded("ghost"); e.Len() != 0 || e.Size() != 0 {
		t.Fatalf("Encoded(missing) = %+v, want zero", e)
	}
}

func TestRemove(t *testing.T) {
	ix := NewInverted()
	ix.Add("t", post("d1", 1, 10))
	ix.Add("t", post("d2", 2, 20))
	if !ix.Remove("t", "d1") {
		t.Fatal("Remove reported not found")
	}
	if ix.Remove("t", "d1") {
		t.Fatal("second Remove reported found")
	}
	if got := ix.DocFreq("t"); got != 1 {
		t.Fatalf("DocFreq = %d after removal, want 1", got)
	}
	if !ix.Remove("t", "d2") {
		t.Fatal("Remove d2 failed")
	}
	if ix.Has("t") {
		t.Fatal("term with no postings still present")
	}
}

func TestRemoveDoc(t *testing.T) {
	ix := NewInverted()
	ix.Add("a", post("d1", 1, 10))
	ix.Add("b", post("d1", 2, 10))
	ix.Add("b", post("d2", 1, 20))
	if got := ix.RemoveDoc("d1"); got != 2 {
		t.Fatalf("RemoveDoc removed %d postings, want 2", got)
	}
	if ix.Has("a") {
		t.Fatal("term a should be gone")
	}
	if ix.DocFreq("b") != 1 {
		t.Fatal("term b should retain d2")
	}
	if ix.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d, want 1", ix.NumDocs())
	}
}

// A document is counted while it holds a posting, whichever call took its
// last one: indexing peers only ever Remove (learning's term replacement,
// unshare), and their doc count must come back down.
func TestNumDocsFollowsRemove(t *testing.T) {
	for name, st := range map[string]Store{"inverted": NewInverted(), "plain": NewPlain()} {
		st.Add("a", post("d1", 1, 10))
		st.Add("b", post("d1", 2, 10))
		st.Add("b", post("d1", 3, 10)) // a republish is not a second posting
		st.Add("b", post("d2", 1, 20))
		st.Remove("a", "d1")
		if st.NumDocs() != 2 {
			t.Fatalf("%s: NumDocs = %d with d1 still under b, want 2", name, st.NumDocs())
		}
		st.Remove("b", "d1")
		if st.NumDocs() != 1 {
			t.Fatalf("%s: NumDocs = %d after d1's last posting went, want 1", name, st.NumDocs())
		}
		if got := st.RemoveDoc("d1"); got != 0 {
			t.Fatalf("%s: RemoveDoc of a doc already gone removed %d", name, got)
		}
		if got := st.RemoveDoc("d2"); got != 1 || st.NumDocs() != 0 || st.NumTerms() != 0 {
			t.Fatalf("%s: RemoveDoc(d2) = %d, left %d docs in %d terms", name, got, st.NumDocs(), st.NumTerms())
		}
	}
}

func TestDocFreqIsIndexedDocumentFrequency(t *testing.T) {
	// DocFreq counts only documents that published the term, which is the
	// paper's n'_k — distinct from corpus-wide document frequency.
	ix := NewInverted()
	for i := 0; i < 7; i++ {
		ix.Add("popular", post(fmt.Sprintf("d%d", i), 1, 10))
	}
	if got := ix.DocFreq("popular"); got != 7 {
		t.Fatalf("DocFreq = %d, want 7", got)
	}
	if got := ix.DocFreq("unindexed"); got != 0 {
		t.Fatalf("DocFreq(missing) = %d, want 0", got)
	}
}

func TestTermsSorted(t *testing.T) {
	ix := NewInverted()
	for _, term := range []string{"zebra", "apple", "mango"} {
		ix.Add(term, post("d1", 1, 3))
	}
	got := ix.Terms()
	want := []string{"apple", "mango", "zebra"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Terms() = %v, want %v", got, want)
		}
	}
}

func TestCounts(t *testing.T) {
	ix := NewInverted()
	ix.Add("a", post("d1", 1, 10))
	ix.Add("a", post("d2", 1, 10))
	ix.Add("b", post("d1", 1, 10))
	if ix.NumTerms() != 2 || ix.NumDocs() != 2 || ix.NumPostings() != 3 {
		t.Fatalf("counts: %s", ix)
	}
	st := ix.Stats()
	if st.Terms != 2 || st.Docs != 2 || st.Postings != 3 || st.Blocks != 2 || st.EncodedBytes <= 0 {
		t.Fatalf("Stats = %+v", st)
	}
	if bpp := st.BytesPerPosting(); bpp <= 0 || bpp > 64 {
		t.Fatalf("BytesPerPosting = %v", bpp)
	}
}

func TestNormFreq(t *testing.T) {
	p := post("d", 5, 100)
	if got := p.NormFreq(); got != 0.05 {
		t.Fatalf("NormFreq = %v, want 0.05", got)
	}
	zero := post("d", 5, 0)
	if got := zero.NormFreq(); got != 0 {
		t.Fatalf("NormFreq with zero length = %v, want 0", got)
	}
}

// WireSize must report exactly what the wire codec's posting layout ships:
// three length-prefixed strings (doc, owner, sketch) and two zig-zag varints.
func TestWireSizeVarintAccurate(t *testing.T) {
	for _, p := range []Posting{
		post("doc-1", 1, 10),
		post("a-rather-long-document-identifier", 200, 100000),
		{Doc: "", Owner: "", Freq: 0, DocLen: 0},
		{Doc: "d", Owner: "o", Freq: -3, DocLen: -1},
		{Doc: "d", Owner: "o", Freq: 2, DocLen: 9, Sketch: "\x01\x04abcd"},
		{Doc: "d", Owner: "o", Freq: 2, DocLen: 9, Sketch: string(make([]byte, 300))},
	} {
		var b []byte
		b = binary.AppendUvarint(b, uint64(len(p.Doc)))
		b = append(b, p.Doc...)
		b = binary.AppendUvarint(b, uint64(len(p.Owner)))
		b = append(b, p.Owner...)
		b = binary.AppendVarint(b, int64(p.Freq))
		b = binary.AppendVarint(b, int64(p.DocLen))
		b = binary.AppendUvarint(b, uint64(len(p.Sketch)))
		b = append(b, p.Sketch...)
		if got := p.WireSize(); got != len(b) {
			t.Fatalf("WireSize(%+v) = %d, want %d", p, got, len(b))
		}
	}
}

// The compressed representation must win big on doc-sorted lists with a
// small owner set — the shape real per-term postings have.
func TestCompressionRatio(t *testing.T) {
	ix := NewInverted()
	mem := 0
	for i := 0; i < 2000; i++ {
		p := Posting{
			Doc:    DocID(fmt.Sprintf("doc%06d", i)),
			Owner:  fmt.Sprintf("peer%02d", i%64),
			Freq:   i%15 + 1,
			DocLen: 80 + i%100,
		}
		ix.Add("t", p)
		mem += p.MemSize()
	}
	st := ix.Stats()
	if ratio := float64(mem) / float64(st.EncodedBytes); ratio < 4 {
		t.Fatalf("memory ratio = %.1fx (plain %dB vs encoded %dB), want >= 4x",
			ratio, mem, st.EncodedBytes)
	}
}

// Property: after any sequence of adds, NumPostings equals the sum of
// DocFreq over all terms, and every posting is retrievable.
func TestInvariantPostingsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := NewInverted()
		type key struct{ term, doc string }
		want := map[key]Posting{}
		for i := 0; i < 200; i++ {
			term := fmt.Sprintf("t%d", rng.Intn(20))
			doc := fmt.Sprintf("d%d", rng.Intn(30))
			p := Posting{Doc: DocID(doc), Owner: "o", Freq: rng.Intn(10) + 1, DocLen: 50}
			if rng.Intn(4) == 0 {
				ix.Remove(term, DocID(doc))
				delete(want, key{term, doc})
			} else {
				ix.Add(term, p)
				want[key{term, doc}] = p
			}
		}
		total := 0
		for _, term := range ix.Terms() {
			total += ix.DocFreq(term)
		}
		if total != ix.NumPostings() {
			return false
		}
		if total != len(want) {
			return false
		}
		for k, p := range want {
			if !slices.Contains(ix.PostingsSlice(k.term), p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
