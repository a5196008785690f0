package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkCanonical demands that every block of term's list is byte for byte
// what encodeBlock makes of its postings, that its cached n / first / last
// are right, and that the list's totals equal a recount.
func checkCanonical(t *testing.T, ix *Inverted, term string) {
	t.Helper()
	tl := ix.lists[term]
	if tl.n == 0 {
		return
	}
	n, size := 0, 0
	for bi, b := range tl.blocks {
		ps := decodeBlock(b)
		want := encodeBlock(ps)
		if !bytes.Equal(b.data, want.data) {
			t.Fatalf("term %q block %d is not canonical:\n  have %x\n  want %x", term, bi, b.data, want.data)
		}
		if b.n != want.n || b.first != want.first || b.last != want.last {
			t.Fatalf("term %q block %d: n/first/last (%d,%q,%q), postings say (%d,%q,%q)",
				term, bi, b.n, b.first, b.last, want.n, want.first, want.last)
		}
		if b.n > blockMax {
			t.Fatalf("term %q block %d holds %d postings, max %d", term, bi, b.n, blockMax)
		}
		if bi > 0 && tl.blocks[bi-1].last >= b.first {
			t.Fatalf("term %q block %d overlaps its predecessor", term, bi)
		}
		n += b.n
		size += len(b.data)
	}
	if tl.n != n || tl.bytes != size {
		t.Fatalf("term %q totals (%d postings, %d bytes), recount (%d, %d)", term, tl.n, tl.bytes, n, size)
	}
}

func ownersOf(ps []Posting) []string {
	var out []string
	for _, p := range ps {
		if i, ok := searchString(out, p.Owner); !ok {
			out = slices.Insert(out, i, p.Owner)
		}
	}
	return out
}

// mustRebuild says whether taking a block's postings from before to after is
// one of the two edits the splice leaves to decode → rebuild: a split, or a
// replace that takes one owner out of the dictionary and brings another in.
func mustRebuild(before, after []Posting) bool {
	if len(after) > blockMax {
		return true
	}
	a, b := ownersOf(before), ownersOf(after)
	return len(after) == len(before) && len(a) == len(b) && !slices.Equal(a, b)
}

// randomPosting draws from a space built to reach every branch of the codec:
// doc IDs of uneven length that are prefixes of one another, a handful of
// owners, frequencies either side of the escape, sketches on and off.
func randomPosting(rng *rand.Rand, docs, owners int) Posting {
	d := rng.Intn(docs)
	p := Posting{
		Doc:    DocID(fmt.Sprintf("doc%04d", d)),
		Owner:  fmt.Sprintf("peer%02d", rng.Intn(owners)),
		Freq:   rng.Intn(40) + 1,
		DocLen: rng.Intn(400) + 1,
	}
	if d%7 == 0 {
		p.Doc = DocID(fmt.Sprintf("doc%04d", d)[:5+d%3]) + DocID(fmt.Sprint(d))
	}
	if rng.Intn(2) == 0 {
		sk := make([]byte, rng.Intn(24)+1)
		rng.Read(sk)
		p.Sketch = string(sk)
	}
	return p
}

// Property: whatever sequence of writes produced it, a list's bytes are the
// canonical encoding of its postings, the postings are the reference store's,
// and decode → rebuild ran exactly when the edit was one the splice leaves to
// it.
func TestSpliceCanonicalForm(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix, px := NewInverted(), NewPlain()
		const terms, docs = 3, 900
		owners := []int{1, 5, 40, 300}[seed-1]
		rebuilt := 0
		for step := 0; step < 3000; step++ {
			term := fmt.Sprintf("t%d", rng.Intn(terms))
			p := randomPosting(rng, docs, owners)

			// The block the write will land in, as index.go picks it.
			var before []Posting
			fresh := true // the write edits no existing block
			if tl := ix.lists[term]; tl.n > 0 {
				bi := min(searchBlocks(tl.blocks, p.Doc), len(tl.blocks)-1)
				tail := tl.blocks[len(tl.blocks)-1]
				if !(p.Doc > tail.last && tail.n >= blockMax) {
					before, fresh = decodeBlock(tl.blocks[bi]), false
				}
			}
			i, found := searchPostings(before, p.Doc)
			was := ix.rebuilds

			switch op := rng.Intn(10); {
			case op < 6:
				if got := ix.Put(term, p); got != found {
					t.Fatalf("seed %d step %d: Put reported replaced=%v, want %v", seed, step, got, found)
				}
				px.Add(term, p)
				after := slices.Clone(before)
				if found {
					after[i] = p
				} else {
					after = slices.Insert(after, i, p)
				}
				if want := !fresh && mustRebuild(before, after); (ix.rebuilds > was) != want {
					t.Fatalf("seed %d step %d: Add of %+v rebuilt=%v, want %v", seed, step, p, ix.rebuilds > was, want)
				}
			case op < 9:
				if ra, rb := ix.Remove(term, p.Doc), px.Remove(term, p.Doc); ra != rb || ra != found {
					t.Fatalf("seed %d step %d: Remove(%s,%s) = %v, plain %v, block says %v", seed, step, term, p.Doc, ra, rb, found)
				}
				if ix.rebuilds > was {
					t.Fatalf("seed %d step %d: Remove of %s went through rebuild", seed, step, p.Doc)
				}
			default:
				if ra, rb := removeDoc(ix, p.Doc), removeDoc(px, p.Doc); ra != rb || ix.rebuilds > was {
					t.Fatalf("seed %d step %d: removeDoc(%s) = %d, plain %d, rebuilt=%v", seed, step, p.Doc, ra, rb, ix.rebuilds > was)
				}
				for _, other := range ix.Terms() {
					checkCanonical(t, ix, other)
				}
			}
			rebuilt += ix.rebuilds - was

			checkCanonical(t, ix, term)
			if got, want := slices.Collect(ix.All(term)), slices.Collect(px.All(term)); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: term %q diverged from the reference:\n  %v\n  %v", seed, step, term, got, want)
			}
			if ix.NumDocs() != px.NumDocs() || ix.NumPostings() != px.NumPostings() {
				t.Fatalf("seed %d step %d: counts (%d docs, %d postings), reference (%d, %d)",
					seed, step, ix.NumDocs(), ix.NumPostings(), px.NumDocs(), px.NumPostings())
			}
		}
		storesEqual(t, ix, px)
		maxBlocks := 0
		for _, tl := range ix.lists {
			maxBlocks = max(maxBlocks, len(tl.blocks))
		}
		if maxBlocks < 2 {
			t.Fatalf("seed %d: no list outgrew one block; the run never crossed blockMax", seed)
		}
		if rebuilt == 0 {
			t.Fatalf("seed %d: no write went through rebuild; the fallback went untested", seed)
		}
		t.Logf("seed %d: %d owners, 3000 writes, %d through rebuild", seed, owners, rebuilt)
	}
}

// What a write allocates is the new block — its bytes, its struct, now and
// then a boundary doc ID — and the list around it; none of it may scale with
// the postings the block holds. (Decoding did: one doc string per posting.)
func TestSpliceAllocsIndependentOfBlockSize(t *testing.T) {
	const runs = 20
	doc := func(i int) DocID { return DocID(fmt.Sprintf("doc%06d", i)) }
	measure := func(size int, op string) float64 {
		ix := NewInverted()
		for i := 0; i < size; i++ {
			ix.Add("t", Posting{Doc: doc(i * 100), Owner: "peer", Freq: 3, DocLen: 120})
		}
		// The docs written are already known to the index under another
		// term, so the per-doc count's map does not grow under the measure.
		ids := make([]DocID, runs+2)
		for i := range ids {
			switch op {
			case "ascending":
				ids[i] = doc(size*100 + i)
			case "mid-add":
				ids[i] = doc(size/2*100 + 1 + i)
			case "mid-remove":
				ids[i] = doc((size/2 - runs/2 + i) * 100)
			}
		}
		for _, id := range ids {
			ix.Add("u", Posting{Doc: id, Owner: "peer", Freq: 1, DocLen: 1})
		}
		next := 0
		was := ix.rebuilds
		allocs := testing.AllocsPerRun(runs, func() {
			if op == "mid-remove" {
				if !ix.Remove("t", ids[next]) {
					t.Fatalf("size %d: %s is not in the block", size, ids[next])
				}
			} else {
				ix.Add("t", Posting{Doc: ids[next], Owner: "peer", Freq: 3, DocLen: 120})
			}
			next++
		})
		if ix.rebuilds != was || len(ix.lists["t"].blocks) != 1 {
			t.Fatalf("size %d %s: left the one-block splice path", size, op)
		}
		return allocs
	}
	for _, op := range []string{"ascending", "mid-add", "mid-remove"} {
		small, large := measure(30, op), measure(200, op)
		if small != large || large > 6 {
			t.Errorf("%s: %v allocs per write into a 30-posting block, %v into a 200-posting one; want equal and small", op, small, large)
		}
	}
}

// FuzzPostingsSplice drives fuzzer-chosen write sequences through the index
// and demands that every list they leave is canonical, equals the reference
// store's, and survives MarshalBinary → UnmarshalBinary, whose validation is
// the wire's full one. An input is a string of four-byte operations; one of
// them adds a run of docs, so that a few bytes reach blockMax and split.
func FuzzPostingsSplice(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 6, 1, 2, 0, 7, 1, 2, 0})
	// Six runs of 64 even-numbered docs into one term seal a block at
	// blockMax; the odd-numbered adds after them land inside it and split
	// it; then removes.
	f.Add([]byte{5, 0, 0, 63, 5, 0, 128, 63, 5, 1, 0, 63, 5, 1, 128, 63, 5, 2, 0, 63, 5, 2, 128, 63,
		0, 0, 101, 9, 1, 0, 7, 200, 2, 1, 31, 41, 6, 0, 100, 0, 6, 1, 64, 0, 7, 0, 6, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		ix, px := NewInverted(), NewPlain()
		// One doc ID in five is cut short, so that it is a prefix of others.
		doc := func(id int) DocID {
			d := fmt.Sprintf("d%04x", id%(1<<16))
			if id%5 == 0 {
				d = d[:4]
			}
			return DocID(d)
		}
		add := func(term string, id int, x byte) {
			p := Posting{
				Doc:    doc(id),
				Owner:  fmt.Sprintf("o%d", x%5),
				Freq:   int(x) - 20,
				DocLen: id - 50,
			}
			if x%3 == 0 {
				p.Sketch = string(make([]byte, x%5))
			}
			ix.Add(term, p)
			px.Add(term, p)
		}
		for ops = ops[:min(len(ops), 4*64)]; len(ops) >= 4; ops = ops[4:] {
			op, id, x := ops[0], int(ops[1])<<8|int(ops[2]), ops[3]
			term := "t" + string('0'+op>>7)
			d := doc(id)
			switch op % 8 {
			case 5:
				for j := 0; j <= int(x%64); j++ {
					add(term, id+2*j, x+byte(j))
				}
			case 6:
				if ix.Remove(term, d) != px.Remove(term, d) {
					t.Fatalf("Remove(%s,%s) disagrees with the reference", term, d)
				}
			case 7:
				if removeDoc(ix, d) != removeDoc(px, d) {
					t.Fatalf("removeDoc(%s) disagrees with the reference", d)
				}
			default:
				add(term, id, x)
			}
		}
		storesEqual(t, ix, px)
		for _, term := range ix.Terms() {
			checkCanonical(t, ix, term)
			checkRoundTrip(t, ix.Encoded(term), term)
		}
	})
}
