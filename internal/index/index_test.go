package index

import (
	"bytes"
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
	got := slices.Collect(ix.All("chord"))
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
	got := slices.Collect(ix.All("term"))
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
	if got := slices.Collect(ix.All("t"))[0].Freq; got != 999 {
		t.Fatalf("fresh read missed republish: freq = %d", got)
	}

	snap = ix.Encoded("t")
	ix.Remove("t", "d1") // in-place splice would corrupt snap
	if got := snap.Slice(); len(got) != 2 || got[0].Doc != "d1" || got[1].Doc != "d2" {
		t.Fatalf("snapshot mutated by Remove: %v", got)
	}
	if got := slices.Collect(ix.All("t")); len(got) != 1 || got[0].Doc != "d2" {
		t.Fatalf("fresh read missed Remove: %v", got)
	}

	snap = ix.Encoded("t")
	cur := snap.Cursor() // a cursor opened before the mutation must survive it too
	ix.Remove("t", "d2")
	if got := snap.Slice(); len(got) != 1 || got[0].Doc != "d2" {
		t.Fatalf("snapshot mutated by Remove: %v", got)
	}
	if p, ok := cur.Next(); !ok || p.Doc != "d2" {
		t.Fatalf("pre-mutation cursor = %+v, %v", p, ok)
	}
	if got := slices.Collect(ix.All("t")); got != nil {
		t.Fatalf("fresh read missed Remove: %v", got)
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
	if got := ix.Encoded("ghost").Slice(); got != nil {
		t.Fatalf("Encoded(missing).Slice() = %v, want nil", got)
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
	if ix.NumTerms() != 0 {
		t.Fatal("term with no postings still present")
	}
}

// Contains agrees with a scan of the list for docs inside, between, before and
// after several blocks' ranges, as postings come and go.
func TestContainsMatchesScan(t *testing.T) {
	ix := NewInverted()
	if ix.Contains("t", "doc0000") {
		t.Fatal("Contains on a missing term")
	}
	for i := 0; i < 3*blockMax; i++ {
		ix.Add("t", Posting{Doc: DocID(fmt.Sprintf("doc%04d", 2*i+1)), Owner: "peer", Freq: 1, DocLen: 9})
	}
	for i := 0; i < 3*blockMax; i += 7 {
		ix.Remove("t", DocID(fmt.Sprintf("doc%04d", 2*i+1)))
	}
	held := map[DocID]bool{}
	for p := range ix.All("t") {
		held[p.Doc] = true
	}
	for i := 0; i <= 6*blockMax+2; i++ {
		doc := DocID(fmt.Sprintf("doc%04d", i))
		if got := ix.Contains("t", doc); got != held[doc] {
			t.Fatalf("Contains(%s) = %v, the list says %v", doc, got, held[doc])
		}
	}
	if ix.Contains("t", "a") || ix.Contains("t", "zzz") || ix.Contains("u", "doc0001") {
		t.Fatal("Contains found a doc outside every block")
	}
}

// Unsharing a document removes its posting under each term: a term only it
// held goes, the others keep their other documents.
func TestRemoveDoc(t *testing.T) {
	ix := NewInverted()
	ix.Add("a", post("d1", 1, 10))
	ix.Add("b", post("d1", 2, 10))
	ix.Add("b", post("d2", 1, 20))
	if got := removeDoc(ix, "d1"); got != 2 {
		t.Fatalf("removeDoc removed %d postings, want 2", got)
	}
	if ix.DocFreq("a") != 0 || ix.NumTerms() != 1 {
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
		if got := removeDoc(st, "d1"); got != 0 {
			t.Fatalf("%s: removeDoc of a doc already gone removed %d", name, got)
		}
		if got := removeDoc(st, "d2"); got != 1 || st.NumDocs() != 0 || st.NumTerms() != 0 {
			t.Fatalf("%s: removeDoc(d2) = %d, left %d docs in %d terms", name, got, st.NumDocs(), st.NumTerms())
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
			if !slices.Contains(slices.Collect(ix.All(k.term)), p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestReplaceInstallsListWholesale: Replace leaves the index exactly as
// removing the term's postings and adding the new list's one by one would —
// the same postings, totals, blocks and bytes — and an empty list deletes
// the term.
func TestReplaceInstallsListWholesale(t *testing.T) {
	src := NewInverted()
	for i := 0; i < 3*blockMax-5; i++ {
		src.Add("t", post(fmt.Sprintf("doc%05d", i), i%7+1, 90+i%11))
	}
	if src.Encoded("t").NumBlocks() < 3 {
		t.Fatalf("source list spans %d blocks, want several", src.Encoded("t").NumBlocks())
	}
	fill := func() *Inverted {
		ix := NewInverted()
		for i := 0; i < 400; i += 3 {
			ix.Add("t", post(fmt.Sprintf("doc%05d", i), 9, 9))
			ix.Add("t", post(fmt.Sprintf("old%05d", i), 1, 5))
			ix.Add("u", post(fmt.Sprintf("old%05d", i), 2, 5))
		}
		return ix
	}
	got, want := fill(), fill()
	if err := got.Replace("t", src.Encoded("t")); err != nil {
		t.Fatal(err)
	}
	for p := range want.All("t") {
		want.Remove("t", p.Doc)
	}
	for p := range src.All("t") {
		want.Add("t", p)
	}
	if got.Stats() != want.Stats() || got.NumDocs() != want.NumDocs() {
		t.Fatalf("Replace left %+v (%d docs), removing and adding %+v (%d docs)",
			got.Stats(), got.NumDocs(), want.Stats(), want.NumDocs())
	}
	for _, term := range []string{"t", "u"} {
		if !slices.Equal(slices.Collect(got.All(term)), slices.Collect(want.All(term))) {
			t.Fatalf("%q differs after Replace", term)
		}
	}
	if err := got.Replace("t", Encoded{}); err != nil || got.DocFreq("t") != 0 {
		t.Fatalf("Replace with an empty list: %v, term kept: %v", err, got.DocFreq("t"))
	}
	if got.NumPostings() != got.DocFreq("u") || got.NumDocs() != got.DocFreq("u") {
		t.Fatalf("after deleting t: %d postings of %d docs, want u's %d", got.NumPostings(), got.NumDocs(), got.DocFreq("u"))
	}
}

// TestReplaceRefusesForeignBlocks: a block the index would not have written —
// one past blockMax, or one whose bytes differ from encodeBlock of its
// postings — is refused and the index left as it was.
func TestReplaceRefusesForeignBlocks(t *testing.T) {
	var big []Posting
	for i := 0; i <= blockMax; i++ {
		big = append(big, post(fmt.Sprintf("doc%05d", i), 1, 3))
	}
	b := encodeBlock(big)
	oversized := Encoded{blocks: []*block{b}, n: b.n, bytes: len(b.data)}

	// Two postings, the second's doc "db" written whole where encodeBlock
	// would share the "d" it has in common with "da".
	data := []byte{2, 1, 0, 1, 'o', 0, 2, 'd', 'a', 0, 2<<5 | 2, 0, 0, 2, 'd', 'b', 0, 2<<5 | 2, 0}
	raw := append([]byte{1, byte(len(data))}, data...)
	var longhand Encoded
	if err := longhand.UnmarshalBinary(raw); err != nil {
		t.Fatalf("the crafted block does not validate: %v", err)
	}

	ix := NewInverted()
	ix.Add("t", post("d1", 1, 2))
	before, list := ix.Stats(), slices.Collect(ix.All("t"))
	for name, e := range map[string]Encoded{"oversized": oversized, "non-canonical": longhand} {
		if err := ix.Replace("t", e); err == nil {
			t.Errorf("%s block accepted", name)
		}
		if ix.Stats() != before || !slices.Equal(slices.Collect(ix.All("t")), list) {
			t.Errorf("%s block refused but the index changed", name)
		}
	}
}
