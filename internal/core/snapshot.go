package core

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"

	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/wire"
)

// This file implements whole-network state snapshots in the wire codec:
// every peer's lists, replicas, reconciled arcs and query history, and
// every owner's documents, learning statistics and withdrawal ledger, so long
// experiments checkpoint after the expensive share+train+learn phases and
// simulations persist across process restarts. The Chord ring is not saved:
// the host rebuilds it from the peer names. Lists are saved as the blocks the
// index stores; every map is written in ascending key order and refused in
// any other, so one state has one encoding. A document's length and sketch
// are functions of its TF, recomputed on load.

const (
	snapshotMagic = "SPRITE snapshot\n"
	// snapshotVersion 4: the wire codec, lists as stored blocks, the
	// withdrawal ledger and each peer's reconciled arc per replica holder (3
	// saved per-posting replica locations instead; 2 was a gob file).
	snapshotVersion = 4
)

// peerImage is one peer's part of a snapshot, live to write or decoded.
type peerImage struct {
	addr     simnet.Addr
	indexing *indexingState
	owned    map[index.DocID]*docState
}

// Snapshot serializes the complete SPRITE state of the network.
func (n *Network) Snapshot(w io.Writer) error {
	order := n.Documents()
	var peers []peerImage
	for _, p := range n.Peers() {
		p.mu.Lock()
		peers = append(peers, peerImage{p.Addr(), &p.indexing, maps.Clone(p.owned)})
		p.mu.Unlock()
	}
	if _, err := w.Write(encodeSnapshot(peers, order)); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// encodeSnapshot writes the file, holding each indexing state's and each
// document's lock while it reads it.
func encodeSnapshot(peers []peerImage, order []index.DocID) []byte {
	e := wire.NewEncoder([]byte(snapshotMagic))
	w := e.Walker()
	e.Uint(snapshotVersion)
	e.Uint(uint64(len(peers)))
	for _, img := range peers {
		e.String(string(img.addr))
		s := img.indexing
		s.mu.Lock()
		for _, ix := range []*index.Inverted{s.ix, s.replicas} {
			terms := ix.Terms()
			e.Uint(uint64(len(terms)))
			for _, t := range terms {
				e.String(t)
				l := ix.Encoded(t)
				walkList(w, &l)
			}
		}
		writeSorted(e, s.reconciled, func(arc chordid.Arc) { walkArc(w, &arc) })
		h := &s.history
		e.Uint(uint64(len(h.ring)))
		for i := range h.ring {
			e.StringSlice(h.queries[h.at(i)].terms)
			e.Uint(h.seqAt(i))
		}
		e.Uint(h.seq)
		s.mu.Unlock()
		writeSorted(e, img.owned, func(st *docState) {
			st.mu.Lock()
			defer st.mu.Unlock()
			writeSorted(e, st.doc.TF, func(f int) { e.Int(int64(f)) })
			// The records go as four sorted sections, one per part: index
			// terms, statistics, watermarks and holders.
			terms := sortedKeys(st.terms)
			part := func(has func(ownedTerm) bool, value func(ownedTerm)) {
				in := slices.DeleteFunc(slices.Clone(terms), func(t string) bool { return !has(st.terms[t]) })
				e.Uint(uint64(len(in)))
				for _, t := range in {
					e.String(t)
					value(st.terms[t])
				}
			}
			part(func(ot ownedTerm) bool { return ot.indexed }, func(ownedTerm) {})
			part(func(ot ownedTerm) bool { return ot.qf > 0 }, func(ot ownedTerm) { e.Int(int64(ot.qf)); e.Float(ot.maxQS) })
			part(func(ot ownedTerm) bool { return ot.mark.At != "" }, func(ot ownedTerm) { e.String(string(ot.mark.At)); e.Uint(ot.mark.Since) })
			part(func(ot ownedTerm) bool { return ot.at != "" }, func(ot ownedTerm) { e.String(string(ot.at)) })
			writeSorted(e, st.banned, func(bool) {})
			writeSorted(e, st.stale, func(addrs []simnet.Addr) { walkStrings(w, &addrs) })
		})
	}
	walkStrings(w, &order)
	return e.Bytes()
}

// Restore loads a snapshot into this network. The network must have been
// freshly constructed over a ring with exactly the same peer names as the
// snapshotted one; any SPRITE state accumulated before Restore is discarded.
// The whole file is decoded and validated before anything is installed, so a
// refused file leaves the network as it was.
func (n *Network) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	peers, order, owners, err := n.decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	// Whatever the caches held describes pre-restore state.
	defer n.caches.invalidate()
	for _, img := range peers {
		p, s := n.peers[img.addr], img.indexing
		p.indexing.mu.Lock()
		p.indexing.ix, p.indexing.replicas, p.indexing.reconciled = s.ix, s.replicas, s.reconciled
		p.indexing.history = s.history
		p.indexing.mu.Unlock()
		p.mu.Lock()
		p.owned = img.owned
		p.mu.Unlock()
	}
	n.ownerOf, n.docOrder = owners, order
	return nil
}

// decodeSnapshot reads encodeSnapshot's form into fresh state, with each
// document's owner. It refuses a file that does not list every network peer
// exactly once, lists a document under two peers, or whose order is not
// exactly the owned documents, each once. Each list goes into its index whole
// through Replace, which refuses blocks the index would not have written.
// Caller holds n.mu.
func (n *Network) decodeSnapshot(data []byte) ([]peerImage, []index.DocID, map[index.DocID]*Peer, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return nil, nil, nil, fmt.Errorf("not a version %d snapshot (bad magic)", snapshotVersion)
	}
	d := wire.NewDecoder(data[len(snapshotMagic):])
	w := d.Walker()
	if v := d.Uint(); d.Err() == nil && v != snapshotVersion {
		return nil, nil, nil, fmt.Errorf("snapshot version %d, want %d", v, snapshotVersion)
	}
	peers := make([]peerImage, d.Count(7))
	if d.Err() == nil && len(peers) != len(n.order) {
		return nil, nil, nil, fmt.Errorf("snapshot has %d peers, network has %d", len(peers), len(n.order))
	}
	owners := make(map[index.DocID]*Peer)
	seen := make(map[simnet.Addr]bool, len(peers))
	for i := range peers {
		addr := simnet.Addr(d.String())
		if d.Err() == nil && (n.peers[addr] == nil || seen[addr]) {
			d.Fail(fmt.Errorf("snapshot peer %q not in network or listed twice", addr))
		}
		seen[addr] = true
		s := &indexingState{ix: decodeLists(d, w), replicas: decodeLists(d, w), reconciled: make(map[simnet.Addr]chordid.Arc)}
		readSorted(d, func(h simnet.Addr) {
			var arc chordid.Arc
			walkArc(w, &arc)
			s.reconciled[h] = arc
		})
		// The issuances replay oldest first into the network's cap, which
		// drops the oldest of a longer history. The ring keeps no seqs, only
		// their order: they must be consecutive, as recording numbers them,
		// and the peer's seq the newest one's.
		h := &s.history
		h.cap = n.cfg.HistoryCap
		entries := d.Count(2)
		for j := 0; j < entries && d.Err() == nil; j++ {
			switch terms, seq := d.StringSlice(), d.Uint(); {
			case d.Err() != nil:
			case len(terms) == 0 || seq <= h.seq || j > 0 && seq != h.seq+1:
				d.Fail(fmt.Errorf("peer %q: history entry %d has %d terms at seq %d, after seq %d: want consecutive seqs", addr, j, len(terms), seq, h.seq))
			default:
				h.seq = seq - 1
				h.add(terms)
			}
		}
		if seq := d.Uint(); d.Err() == nil && (seq < h.seq || entries > 0 && seq > h.seq) {
			d.Fail(fmt.Errorf("peer %q: history seq %d, its newest entry's %d: behind or ahead", addr, seq, h.seq))
		} else {
			h.seq = seq
		}
		owned := make(map[index.DocID]*docState)
		readSorted(d, func(id index.DocID) {
			if prev := owners[id]; prev != nil {
				d.Fail(fmt.Errorf("document %q listed under both %q and %q", id, prev.Addr(), addr))
			}
			owners[id], owned[id] = n.peers[addr], n.decodeDoc(d, w, id)
		})
		peers[i] = peerImage{addr, s, owned}
	}
	order := readStrings[index.DocID](w)
	listed := make(map[index.DocID]bool, len(order))
	for _, id := range order {
		if d.Err() == nil && (owners[id] == nil || listed[id]) {
			d.Fail(fmt.Errorf("doc order names document %q unknown or twice", id))
		}
		listed[id] = true
	}
	if d.Err() == nil && len(listed) != len(owners) {
		d.Fail(fmt.Errorf("doc order lists %d documents, snapshot owns %d", len(listed), len(owners)))
	}
	if d.Err() == nil && d.Remaining() > 0 {
		d.Fail(fmt.Errorf("%d trailing bytes", d.Remaining()))
	}
	return peers, order, owners, d.Err()
}

// decodeDoc reads one owned document's learning state; w walks d.
func (n *Network) decodeDoc(d *wire.Decoder, w *wire.Walker, id index.DocID) *docState {
	tf := make(map[string]int)
	readSorted(d, func(t string) { tf[t] = int(d.Int()) })
	st := &docState{
		doc:    corpus.NewDocument(id, tf),
		terms:  make(map[string]ownedTerm),
		banned: make(map[string]bool),
		stale:  make(map[string][]simnet.Addr),
	}
	st.sketch = n.docSketchFor(st.doc)
	// Each section reads one part of its terms' records.
	part := func(value func(ot *ownedTerm)) {
		readSorted(d, func(t string) {
			ot := st.terms[t]
			value(&ot)
			st.set(t, ot)
		})
	}
	part(func(ot *ownedTerm) { ot.indexed = true })
	part(func(ot *ownedTerm) { ot.qf, ot.maxQS = int32(d.Int()), d.Float() })
	part(func(ot *ownedTerm) { ot.mark = pollMark{simnet.Addr(d.String()), d.Uint()} })
	part(func(ot *ownedTerm) { ot.at = simnet.Addr(d.String()) })
	readSorted(d, func(t string) { st.banned[t] = true })
	readSorted(d, func(t string) { st.stale[t] = readStrings[simnet.Addr](w) })
	return st
}

// decodeLists reads a primary or replica index's terms and lists. The index
// stores no empty list, so none may arrive. w walks d.
func decodeLists(d *wire.Decoder, w *wire.Walker) *index.Inverted {
	ix := index.NewInverted()
	readSorted(d, func(term string) {
		var l index.Encoded
		if walkList(w, &l); l.Len() == 0 {
			d.Fail(fmt.Errorf("term %q has an empty list", term))
		} else {
			d.Fail(ix.Replace(term, l))
		}
	})
	return ix
}

// writeSorted writes m as a count and its keys in ascending order, each
// followed by what value writes of its value.
func writeSorted[K ~string, V any](e *wire.Encoder, m map[K]V, value func(V)) {
	e.Uint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.String(string(k))
		value(m[k])
	}
}

// readSorted reads writeSorted's form, calling value for each key to read
// what follows it. Keys that do not strictly ascend poison the decoder.
func readSorted[K ~string](d *wire.Decoder, value func(K)) {
	var prev K
	for i, n := 0, d.Count(1); i < n && d.Err() == nil; i++ {
		k := K(d.String())
		if i > 0 && k <= prev {
			d.Fail(fmt.Errorf("key %q after %q: keys must ascend", k, prev))
			return
		}
		prev = k
		value(k)
	}
}

// readStrings reads walkStrings' form; an empty list reads as nil.
func readStrings[S ~string](w *wire.Walker) (list []S) {
	walkStrings(w, &list)
	return list
}
