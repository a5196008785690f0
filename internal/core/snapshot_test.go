package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// snapshotConfig is the configuration of snapshotFixture and its twins.
var snapshotConfig = Config{InitialTerms: 2, TermsPerIteration: 2, MaxIndexTerms: 6, ReplicationFactor: 1, Parallelism: 1}

// snapshotFixture builds a network with trained, learned and replicated state
// worth saving.
func snapshotFixture(t testing.TB) *Network {
	t.Helper()
	n := testNetwork(t, 8, snapshotConfig)
	docs := []struct {
		id string
		tf map[string]int
	}{
		{"d1", map[string]int{"storage": 5, "engine": 3, "compaction": 1}},
		{"d2", map[string]int{"lookup": 4, "routing": 2, "finger": 1}},
		{"d3", map[string]int{"stemming": 3, "suffix": 2, "porter": 1}},
	}
	for i, d := range docs {
		owner := n.Peers()[i%4].Addr()
		if err := n.ShareCtx(context.Background(), owner, doc(d.id, d.tf)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range [][]string{
		{"storage", "compaction"}, {"lookup", "finger"}, {"stemming", "porter"},
		{"storage", "compaction"}, {"engine", "storage"},
	} {
		if err := n.InsertQueryCtx(context.Background(), "p5", q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	n.Repair()
	return n
}

// freshTwin builds a new, empty network over an identical ring.
func freshTwin(t testing.TB) *Network {
	t.Helper()
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	if _, err := ring.AddNodes("p", 8); err != nil {
		t.Fatal(err)
	}
	ring.Build()
	n, err := NewNetwork(ring, snapshotConfig)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// saveBytes returns n's snapshot.
func saveBytes(t testing.TB, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := snapshotFixture(t)
	snap := saveBytes(t, orig)

	restored := freshTwin(t)
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if again := saveBytes(t, restored); !bytes.Equal(again, snap) {
		t.Fatalf("Save → Load → Save is not byte-identical (%d vs %d bytes)", len(again), len(snap))
	}

	// Documents, index terms, and postings must match exactly.
	if !reflect.DeepEqual(orig.Documents(), restored.Documents()) {
		t.Fatalf("doc order differs: %v vs %v", orig.Documents(), restored.Documents())
	}
	for _, id := range orig.Documents() {
		a, _ := orig.IndexedTerms(id)
		b, _ := restored.IndexedTerms(id)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("indexed terms for %s differ: %v vs %v", id, a, b)
		}
	}
	// Every owner record must come back, each poll watermark with the peer
	// that issued it.
	for i, p := range orig.Peers() {
		for id, st := range p.owned {
			got := restored.Peers()[i].owned[id]
			if !reflect.DeepEqual(got.terms, st.terms) || got.nIndexed != st.nIndexed {
				t.Fatalf("owner records of %s differ after restore: %v vs %v", id, got.terms, st.terms)
			}
			marks := 0
			for term, ot := range got.terms {
				if ot.mark.At == "" {
					continue
				}
				if marks++; ot.mark.At != ot.at {
					t.Fatalf("watermark of %s/%q belongs to %q, posting is at %q", id, term, ot.mark.At, ot.at)
				}
			}
			if marks == 0 {
				t.Fatalf("%s has no poll watermark to restore", id)
			}
		}
	}
	if orig.TotalPostings() != restored.TotalPostings() {
		t.Fatalf("postings differ: %d vs %d", orig.TotalPostings(), restored.TotalPostings())
	}
	// Every replica comes back, and every peer's record of the arc it last
	// reconciled at each replica holder.
	if got, want := restored.ReplicaSnapshot(), orig.ReplicaSnapshot(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replicas after restore = %v, want %v", got, want)
	}
	for i, p := range orig.Peers() {
		want := p.indexing.reconciled
		if got := restored.Peers()[i].indexing.reconciled; len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s's reconciled holders after restore = %v, want %v", p.Addr(), got, want)
		}
	}
	// Histories must match, oldest first.
	if got, want := restored.histories(), orig.histories(); !reflect.DeepEqual(got, want) {
		t.Fatalf("histories differ after restore: %v vs %v", got, want)
	}

	// Behaviour must match: identical searches...
	for _, q := range [][]string{{"storage"}, {"compaction"}, {"finger", "lookup"}} {
		a, err := orig.SearchCtx(context.Background(), "p3", q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.SearchCtx(context.Background(), "p3", q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("search %v differs after restore: %v vs %v", q, a, b)
		}
	}
	// ...and identical continued learning (watermarks survived).
	ca, err := orig.LearnAllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := restored.LearnAllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("post-restore learning diverged: %d vs %d changes", ca, cb)
	}
}

// TestSnapshotBytesDeterministic: two builds of one state save one file.
func TestSnapshotBytesDeterministic(t *testing.T) {
	if a, b := saveBytes(t, snapshotFixture(t)), saveBytes(t, snapshotFixture(t)); !bytes.Equal(a, b) {
		t.Fatalf("two builds of the fixture saved different snapshots (%d and %d bytes)", len(a), len(b))
	}
}

// TestSnapshotKeepsBlocks: lists spanning several blocks are saved as stored
// and installed whole, so the restored index has the same postings, blocks
// and encoded bytes.
func TestSnapshotKeepsBlocks(t *testing.T) {
	cfg := Config{InitialTerms: 2}
	orig := testNetwork(t, 8, cfg)
	for i := 0; i < 700; i++ {
		d := doc(fmt.Sprintf("doc%04d", i), map[string]int{"common": 3, fmt.Sprintf("only%04d", i): 1})
		if err := orig.ShareCtx(context.Background(), orig.Peers()[i%8].Addr(), d); err != nil {
			t.Fatal(err)
		}
	}
	snap := saveBytes(t, orig)
	restored := testNetwork(t, 8, cfg)
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	want, got := orig.IndexStats(), restored.IndexStats()
	if want.Blocks <= want.Terms {
		t.Fatalf("no list spans several blocks: %+v", want)
	}
	if got != want {
		t.Fatalf("IndexStats after a round trip = %+v, want %+v", got, want)
	}
	if again := saveBytes(t, restored); !bytes.Equal(again, snap) {
		t.Fatal("Save → Load → Save is not byte-identical")
	}
}

// TestRestoreKeepsSketches: a restored owner recomputes its documents'
// sketches, so similarity search and the postings learning publishes carry
// them as before the save.
func TestRestoreKeepsSketches(t *testing.T) {
	cfg := Config{InitialTerms: 3, TermsPerIteration: 2, MaxIndexTerms: 6, Sketch: sketchConfig()}
	orig := testNetwork(t, 8, cfg)
	ids := similarCorpus(t, orig)
	restored := testNetwork(t, 8, cfg)
	if err := restored.Restore(bytes.NewReader(saveBytes(t, orig))); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		want, _ := orig.DocSketch(id)
		if got, _ := restored.DocSketch(id); got != want || got == "" {
			t.Fatalf("DocSketch(%s) after restore = %q, want %q", id, got, want)
		}
	}
	a, err := orig.SearchSimilarCtx(context.Background(), "p5", "d0", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.SearchSimilarCtx(context.Background(), "p5", "d0", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("SearchSimilarCtx after restore = %v, want %v", b, a)
	}

	// d0's fourth term is not indexed yet; queries for it make the next sweep
	// publish it.
	for range 3 {
		if err := restored.InsertQueryCtx(context.Background(), "p2", []string{"delta"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := restored.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, _ := restored.DocSketch("d0")
	published := false
	for _, e := range restored.PrimarySnapshot() {
		if e.Term == "delta" && e.Posting.Doc == "d0" {
			published = true
			if e.Posting.Sketch != want {
				t.Fatalf("the posting learning published for d0/delta carries sketch %q, want %q", e.Posting.Sketch, want)
			}
		}
	}
	if !published {
		t.Fatal("learning did not publish d0/delta")
	}
}

// TestRestoreCarriesWithdrawalLedger: a withdrawal that could not reach its
// holder before the save is retried after the load. A sweep re-anchors a
// term away from its crashed holder, which keeps the copy; in the restored
// twin every peer is alive, the holder serves the term again, and
// FlushStaleAll withdraws the copy there.
func TestRestoreCarriesWithdrawalLedger(t *testing.T) {
	cfg := Config{InitialTerms: 2}
	orig := testNetwork(t, 10, cfg)
	if err := orig.ShareCtx(context.Background(), "p0", doc("d", map[string]int{"alpha": 2, "beta": 1})); err != nil {
		t.Fatal(err)
	}
	holder, _ := orig.Ring().Owner(chordid.HashKey("alpha"))
	if holder.Addr() == "p0" {
		t.Skip("the owner indexes the term itself (hash layout)")
	}
	orig.Ring().Fail(holder)
	orig.Ring().StabilizeLists(64)
	orig.Ring().RepairFingers()
	if _, err := orig.LearnAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, _ := orig.DocIndexInfo("d")
	if got := before.Stale["alpha"]; len(got) != 1 || got[0] != holder.Addr() {
		t.Fatalf("stale withdrawals for alpha = %v, want the crashed holder %s", got, holder.Addr())
	}

	twin := testNetwork(t, 10, cfg)
	if err := twin.Restore(bytes.NewReader(saveBytes(t, orig))); err != nil {
		t.Fatal(err)
	}
	if after, _ := twin.DocIndexInfo("d"); !reflect.DeepEqual(after.Stale, before.Stale) {
		t.Fatalf("stale withdrawals after restore = %v, want %v", after.Stale, before.Stale)
	}
	if rl, err := twin.SearchCtx(context.Background(), "p1", []string{"alpha"}, 5); err != nil || len(rl) != 1 {
		t.Fatalf("before the flush the withdrawn copy answers %v, %v; want d", rl, err)
	}
	twin.FlushStaleAll()
	if rl, err := twin.SearchCtx(context.Background(), "p1", []string{"alpha"}, 5); err != nil || len(rl) != 0 {
		t.Fatalf("after the flush a search returns %v, %v; want nothing", rl, err)
	}
	if info, _ := twin.DocIndexInfo("d"); len(info.Stale) != 0 {
		t.Fatalf("stale withdrawals after the flush = %v, want none", info.Stale)
	}
}

func TestRestoreValidation(t *testing.T) {
	orig := snapshotFixture(t)
	snap := saveBytes(t, orig)

	// Wrong peer set.
	net := simnet.New(1)
	ring := chord.NewRing(net, chord.Config{})
	ring.AddNodes("other", 8)
	ring.Build()
	wrong, err := NewNetwork(ring, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.Restore(bytes.NewReader(snap)); err == nil {
		t.Fatal("restore onto mismatched peer set succeeded")
	}

	// Wrong peer count.
	net2 := simnet.New(1)
	ring2 := chord.NewRing(net2, chord.Config{})
	ring2.AddNodes("p", 4)
	ring2.Build()
	small, err := NewNetwork(ring2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Restore(bytes.NewReader(snap)); err == nil {
		t.Fatal("restore onto smaller network succeeded")
	}

	// Garbage input.
	fresh := freshTwin(t)
	if err := fresh.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage restore succeeded")
	}

	// Crafted files that decode but describe no network this one could be.
	for _, c := range []struct {
		name   string
		mutate func(peers []peerImage, order *[]index.DocID)
	}{
		{"peer listed twice, another missing", func(peers []peerImage, _ *[]index.DocID) {
			peers[len(peers)-1] = peers[0]
		}},
		{"document under two peers", moveUnderLastPeer},
		{"doc order repeats a document", func(_ []peerImage, order *[]index.DocID) {
			*order = append(*order, (*order)[0])
		}},
		{"doc order misses a document", func(_ []peerImage, order *[]index.DocID) {
			*order = (*order)[1:]
		}},
		{"doc order names an unknown document", func(_ []peerImage, order *[]index.DocID) {
			*order = append(*order, "ghost")
		}},
	} {
		target := freshTwin(t)
		if err := target.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatalf("%s: valid restore: %v", c.name, err)
		}
		if err := target.Restore(bytes.NewReader(craftSnapshot(t, snap, c.mutate))); err == nil {
			t.Errorf("%s: restore succeeded", c.name)
		}
		learnWithin(t, c.name, target, 10*time.Second)
	}
}

// moveUnderLastPeer lists the first owned document under the last peer too.
func moveUnderLastPeer(peers []peerImage, _ *[]index.DocID) {
	for _, img := range peers {
		if len(img.owned) > 0 {
			id := slices.Sorted(maps.Keys(img.owned))[0]
			peers[len(peers)-1].owned[id] = img.owned[id]
			return
		}
	}
}

// craftSnapshot decodes a snapshot, applies mutate, and re-encodes it.
func craftSnapshot(t *testing.T, snap []byte, mutate func(peers []peerImage, order *[]index.DocID)) []byte {
	t.Helper()
	peers, order, _, err := freshTwin(t).decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	mutate(peers, &order)
	return encodeSnapshot(peers, order)
}

// learnWithin runs a learning sweep and fails if it has not returned within
// d: a sweep that locks one document's state twice never returns.
func learnWithin(t *testing.T, name string, n *Network, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := n.LearnAllCtx(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: LearnAllCtx after refused restore: %v", name, err)
		}
	case <-time.After(2 * d):
		t.Fatalf("%s: LearnAllCtx after refused restore did not return", name)
	}
}

// TestRestoreRefusalLeavesNetworkIntact: a file whose last peer fails
// validation is refused before any earlier peer is wiped.
func TestRestoreRefusalLeavesNetworkIntact(t *testing.T) {
	bad := craftSnapshot(t, saveBytes(t, snapshotFixture(t)), moveUnderLastPeer)

	target := snapshotFixture(t)
	q := []string{"storage", "compaction"}
	docsBefore := target.Documents()
	rlBefore, err := target.SearchCtx(context.Background(), "p3", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := target.Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("restore with a document listed under two peers succeeded")
	}
	if got := target.Documents(); !reflect.DeepEqual(got, docsBefore) {
		t.Fatalf("Documents after refused restore = %v, want %v", got, docsBefore)
	}
	rl, err := target.SearchCtx(context.Background(), "p3", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) == 0 || !reflect.DeepEqual(rl, rlBefore) {
		t.Fatalf("search after refused restore = %v, want %v", rl, rlBefore)
	}
}

// onePeerFile writes a snapshot header for eight peers and the first, "p0",
// whose lists, reconciled arcs, history and documents body writes.
func onePeerFile(body func(e *wire.Encoder)) []byte {
	e := wire.NewEncoder([]byte(snapshotMagic))
	e.Uint(snapshotVersion)
	e.Uint(8)
	e.String("p0")
	body(e)
	e.Raw(make([]byte, 64)) // room the eight peers' count asks for
	return e.Bytes()
}

// historyFile is a one-peer file whose peer holds no lists, the history
// entries given, oldest first, and seq.
func historyFile(seq uint64, entries ...refQuery) []byte {
	return onePeerFile(func(e *wire.Encoder) {
		e.Raw([]byte{0, 0, 0}) // no lists or reconciled arcs
		e.Uint(uint64(len(entries)))
		for _, q := range entries {
			e.StringSlice(q.terms)
			e.Uint(q.seq)
		}
		e.Uint(seq)
	})
}

// rawList writes one term whose list is raw, framed as walkList frames it.
func rawList(e *wire.Encoder, term string, raw []byte) {
	e.Uint(1)
	e.String(term)
	e.Uint(uint64(len(raw)))
	e.Raw(raw)
}

// oversizedList is one canonical block of 257 postings, one more than any
// block the index writes holds, framed as a one-block list.
func oversizedList() []byte {
	block := append(binary.AppendUvarint(nil, 257), 1, 0, 1, 'o')
	prev := ""
	for i := 0; i < 257; i++ {
		doc := fmt.Sprintf("d%03d", i)
		pre := 0
		for pre < len(prev) && prev[pre] == doc[pre] {
			pre++
		}
		block = append(append(block, byte(pre), byte(len(doc)-pre)), doc[pre:]...)
		block = append(block, 0, 2<<5|2, 0)
		prev = doc
	}
	return append(binary.AppendUvarint([]byte{1}, uint64(len(block))), block...)
}

// TestRestoreRefusesMalformedFiles: files that are not version 4 snapshots —
// a version 3 file, which saved per-posting replica locations, included —
// or whose maps, terms or blocks are not in the one form Save writes, are
// refused with the network left as it was.
func TestRestoreRefusesMalformedFiles(t *testing.T) {
	snap := saveBytes(t, snapshotFixture(t))
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(struct{ Version int }{2}); err != nil {
		t.Fatal(err)
	}
	flip := func(i int, b byte) []byte {
		out := slices.Clone(snap)
		out[i] = b
		return out
	}
	// Two postings, the second's doc "db" written whole where encodeBlock
	// would share the "d" it has in common with "da".
	longhand := []byte{2, 1, 0, 1, 'o', 0, 2, 'd', 'a', 0, 2<<5 | 2, 0, 0, 2, 'd', 'b', 0, 2<<5 | 2, 0}
	for _, c := range []struct {
		name, err string
		file      []byte
	}{
		{"gob version 2 file", "version 4", v2.Bytes()},
		{"bad magic", "bad magic", flip(0, 's')},
		{"version 3 file", "version 3, want 4", flip(len(snapshotMagic), 3)},
		{"wrong version", "version 5, want 4", flip(len(snapshotMagic), 5)},
		{"truncated", "", snap[:len(snap)/2]},
		{"trailing byte", "trailing", append(slices.Clone(snap), 0)},
		{"unsorted terms", "must ascend", onePeerFile(func(e *wire.Encoder) {
			l := index.NewInverted()
			l.Add("b", index.Posting{Doc: "d", Owner: "p0", Freq: 1, DocLen: 1})
			e.Uint(2)
			for _, term := range []string{"b", "a"} {
				e.String(term)
				list := l.Encoded("b")
				walkList(e.Walker(), &list)
			}
		})},
		{"repeated TF key", "must ascend", onePeerFile(func(e *wire.Encoder) {
			e.Raw([]byte{0, 0, 0, 0, 0}) // no lists, reconciled arcs or history; seq 0
			e.Uint(1)
			e.String("d")
			e.Uint(2)
			for range 2 {
				e.String("tf")
				e.Int(1)
			}
		})},
		{"history seqs not ascending", "after seq 5", historyFile(5, refQuery{[]string{"a"}, 5}, refQuery{[]string{"b"}, 5})},
		{"empty history query", "0 terms", historyFile(2, refQuery{[]string{"a"}, 1}, refQuery{nil, 2})},
		{"history seq behind its entries", "behind", historyFile(6, refQuery{[]string{"a"}, 7})},
		{"history seqs not consecutive", "consecutive", historyFile(7, refQuery{[]string{"a"}, 5}, refQuery{[]string{"b"}, 7})},
		{"history seq ahead of its entries", "ahead", historyFile(8, refQuery{[]string{"a"}, 7})},
		{"empty list", "empty list", onePeerFile(func(e *wire.Encoder) { rawList(e, "t", []byte{0}) })},
		{"non-canonical block", "canonical", onePeerFile(func(e *wire.Encoder) {
			rawList(e, "t", append([]byte{1, byte(len(longhand))}, longhand...))
		})},
		{"oversized block", "more than 256", onePeerFile(func(e *wire.Encoder) { rawList(e, "t", oversizedList()) })},
	} {
		target := freshTwin(t)
		if err := target.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
		err := target.Restore(bytes.NewReader(c.file))
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: Restore = %v, want an error mentioning %q", c.name, err, c.err)
		}
		if !bytes.Equal(saveBytes(t, target), snap) {
			t.Errorf("%s: refused file changed the network", c.name)
		}
	}
}

func TestRestoreDiscardsPriorState(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	target := freshTwin(t)
	// Give the target some state that must vanish.
	if err := target.ShareCtx(context.Background(), "p0", doc("stale", map[string]int{"leftover": 1})); err != nil {
		t.Fatal(err)
	}
	if err := target.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := target.IndexedTerms("stale"); err == nil {
		t.Fatal("pre-restore document survived")
	}
	if rl, _ := target.SearchCtx(context.Background(), "p1", []string{"leftover"}, 5); len(rl) != 0 {
		t.Fatalf("pre-restore postings survived: %v", rl)
	}
}

// FuzzSnapshotLoad: hostile bytes make Restore fail, never panic or allocate
// beyond what the input could hold, and any file Restore accepts saves to a
// file that loads and saves to itself.
func FuzzSnapshotLoad(f *testing.F) {
	snap := saveBytes(f, snapshotFixture(f))
	f.Add(snap, uint8(0), uint16(0))
	f.Add(snap, uint8(1), uint16(len(snap)/3))
	f.Add(snap, uint8(2), uint16(len(snap)/2))
	f.Add(saveBytes(f, freshTwin(f)), uint8(0), uint16(0))
	f.Add(historyFile(7, refQuery{[]string{"a"}, 5}, refQuery{[]string{"b"}, 7}), uint8(0), uint16(0))
	f.Add(historyFile(8, refQuery{[]string{"a"}, 7}), uint8(0), uint16(0))
	a, b := freshTwin(f), freshTwin(f)
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, pos uint16) {
		data = slices.Clone(data)
		if len(data) > 0 {
			switch mode % 3 {
			case 1: // truncate
				data = data[:int(pos)%len(data)]
			case 2: // bit flip
				data[int(pos)%len(data)] ^= 1 << (pos % 8)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := a.Restore(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+uint64(1024*len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		first := saveBytes(t, a)
		if err := b.Restore(bytes.NewReader(first)); err != nil {
			t.Fatalf("a saved snapshot does not load: %v", err)
		}
		if second := saveBytes(t, b); !bytes.Equal(first, second) {
			t.Fatal("Save → Load → Save is not byte-stable")
		}
	})
}

// BenchmarkSnapshot saves and loads a deployment of the benchmark's postings
// size — 16 peers, 2 000 synthetic documents, a trained history and one
// learning sweep — and reports the file size.
func BenchmarkSnapshot(b *testing.B) {
	col, err := corpus.Synthesize(corpus.SynthConfig{NumDocs: 2000, Seed: 2007})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	n := testNetwork(b, 16, Config{Parallelism: 1})
	peers := n.Peers()
	for i, d := range col.Corpus.Docs() {
		if err := n.ShareCtx(ctx, peers[i%len(peers)].Addr(), d); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		if err := n.InsertQueryCtx(ctx, peers[i%len(peers)].Addr(), col.Queries[i%len(col.Queries)].Terms); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := n.LearnAllCtx(ctx); err != nil {
		b.Fatal(err)
	}
	snap := saveBytes(b, n)
	b.Run("save", func(b *testing.B) {
		b.ReportMetric(float64(len(snap)), "file_bytes")
		for range b.N {
			if err := n.Snapshot(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		twin := testNetwork(b, 16, Config{Parallelism: 1})
		b.ResetTimer()
		for range b.N {
			if err := twin.Restore(bytes.NewReader(snap)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
