package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file implements whole-network state snapshots: every peer's inverted
// lists, replicas, and query history, plus every owner's documents and
// learning statistics, serialized with gob. Long experiments checkpoint
// after the expensive share+train+learn phases and restore instantly;
// simulations can be persisted across process restarts. A snapshot captures
// SPRITE state only — the Chord ring is reconstructed by the host (it is a
// pure function of the peer names).

// snapshotVersion guards against decoding snapshots from incompatible
// layouts. 2: a poll watermark is stored with the peer that issued it.
const snapshotVersion = 2

type snapshotFile struct {
	Version int
	Peers   []peerSnapshot
	// DocOrder preserves the learning sweep order.
	DocOrder []index.DocID
}

type peerSnapshot struct {
	Addr     simnet.Addr
	Postings []postingEntry
	Replicas []postingEntry
	History  []historyEntry
	Seq      uint64
	Owned    []docSnapshot
}

type postingEntry struct {
	Term    string
	Posting index.Posting
}

type historyEntry struct {
	Terms []string
	Seq   uint64
}

type docSnapshot struct {
	ID          index.DocID
	TF          map[string]int
	Length      int
	Indexed     []string
	Stats       []termStatSnapshot
	Since       map[string]pollMark
	PublishedAt map[string]simnet.Addr
	Banned      []string
}

type termStatSnapshot struct {
	Term  string
	QF    int
	MaxQS float64
}

// Snapshot serializes the complete SPRITE state of the network.
func (n *Network) Snapshot(w io.Writer) error {
	file := snapshotFile{Version: snapshotVersion, DocOrder: n.Documents()}
	for _, p := range n.Peers() {
		ps := peerSnapshot{Addr: p.Addr()}

		p.indexing.mu.Lock()
		for _, term := range p.indexing.ix.Terms() {
			for posting := range p.indexing.ix.All(term) {
				ps.Postings = append(ps.Postings, postingEntry{Term: term, Posting: posting})
			}
		}
		for _, term := range p.indexing.replicas.Terms() {
			for posting := range p.indexing.replicas.All(term) {
				ps.Replicas = append(ps.Replicas, postingEntry{Term: term, Posting: posting})
			}
		}
		for _, sq := range p.indexing.history {
			ps.History = append(ps.History, historyEntry{
				Terms: append([]string(nil), sq.terms...),
				Seq:   sq.seq,
			})
		}
		ps.Seq = p.indexing.seq
		p.indexing.mu.Unlock()

		p.mu.Lock()
		var docIDs []index.DocID
		for id := range p.owned {
			docIDs = append(docIDs, id)
		}
		sort.Slice(docIDs, func(i, j int) bool { return docIDs[i] < docIDs[j] })
		for _, id := range docIDs {
			st := p.owned[id]
			st.mu.Lock()
			ds := docSnapshot{
				ID:          id,
				TF:          st.doc.TF,
				Length:      st.doc.Length,
				Since:       st.since,
				PublishedAt: st.publishedAt,
			}
			for t := range st.indexed {
				ds.Indexed = append(ds.Indexed, t)
			}
			sort.Strings(ds.Indexed)
			var terms []string
			for t := range st.stats {
				terms = append(terms, t)
			}
			sort.Strings(terms)
			for _, t := range terms {
				ts := st.stats[t]
				ds.Stats = append(ds.Stats, termStatSnapshot{Term: t, QF: ts.qf, MaxQS: ts.maxQS})
			}
			for t := range st.banned {
				ds.Banned = append(ds.Banned, t)
			}
			st.mu.Unlock()
			sort.Strings(ds.Banned)
			ps.Owned = append(ps.Owned, ds)
		}
		p.mu.Unlock()

		file.Peers = append(file.Peers, ps)
	}
	if err := gob.NewEncoder(w).Encode(file); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// Restore loads a snapshot into this network. The network must have been
// freshly constructed over a ring with exactly the same peer names as the
// snapshotted one; any SPRITE state accumulated before Restore is discarded.
// The whole file is decoded and validated before anything is installed, so a
// refused file leaves the network as it was.
func (n *Network) Restore(r io.Reader) error {
	var file snapshotFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	owned, err := n.checkSnapshot(file)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	// Whatever the caches held describes pre-restore state.
	defer n.caches.invalidate()

	n.ownerOf = make(map[index.DocID]*Peer)
	for i, ps := range file.Peers {
		p := n.peers[ps.Addr]

		p.indexing.mu.Lock()
		p.indexing.ix = index.NewInverted()
		p.indexing.replicas = index.NewInverted()
		// Replica-location records are rebuilt as post-restore publishes
		// happen; stale pre-snapshot locations must not leak into them.
		p.indexing.replicaLocs = nil
		for _, e := range ps.Postings {
			p.indexing.ix.Add(e.Term, e.Posting)
		}
		for _, e := range ps.Replicas {
			p.indexing.replicas.Add(e.Term, e.Posting)
		}
		history := make([]storedQuery, 0, len(ps.History))
		for _, h := range ps.History {
			history = append(history, storedQuery{terms: h.Terms, seq: h.Seq})
		}
		p.indexing.restoreHistory(history)
		p.indexing.seq = ps.Seq
		p.indexing.mu.Unlock()

		p.mu.Lock()
		p.owned = owned[i]
		for id := range owned[i] {
			n.ownerOf[id] = p
		}
		p.mu.Unlock()
	}
	n.docOrder = file.DocOrder
	return nil
}

// checkSnapshot validates a decoded snapshot against this network and builds
// each peer's owned-document states, indexed like file.Peers. It refuses a
// file that does not list every network peer exactly once, lists a document
// under two peers or with a length its TF disagrees with, or whose DocOrder is
// not exactly the owned documents, each once. Caller holds n.mu.
func (n *Network) checkSnapshot(file snapshotFile) ([]map[index.DocID]*docState, error) {
	if file.Version != snapshotVersion {
		return nil, fmt.Errorf("snapshot version %d, want %d", file.Version, snapshotVersion)
	}
	if len(file.Peers) != len(n.order) {
		return nil, fmt.Errorf("snapshot has %d peers, network has %d", len(file.Peers), len(n.order))
	}
	listed := make(map[simnet.Addr]bool, len(file.Peers))
	ownerOf := make(map[index.DocID]simnet.Addr)
	owned := make([]map[index.DocID]*docState, len(file.Peers))
	for i, ps := range file.Peers {
		if _, ok := n.peers[ps.Addr]; !ok {
			return nil, fmt.Errorf("snapshot peer %q not in network", ps.Addr)
		}
		if listed[ps.Addr] {
			return nil, fmt.Errorf("snapshot lists peer %q twice", ps.Addr)
		}
		listed[ps.Addr] = true
		owned[i] = make(map[index.DocID]*docState, len(ps.Owned))
		for _, ds := range ps.Owned {
			if prev, dup := ownerOf[ds.ID]; dup {
				return nil, fmt.Errorf("document %q listed under both %q and %q", ds.ID, prev, ps.Addr)
			}
			ownerOf[ds.ID] = ps.Addr
			st, err := restoreDoc(ds)
			if err != nil {
				return nil, err
			}
			owned[i][ds.ID] = st
		}
	}
	ordered := make(map[index.DocID]bool, len(file.DocOrder))
	for _, id := range file.DocOrder {
		if _, ok := ownerOf[id]; !ok {
			return nil, fmt.Errorf("doc order references unknown document %q", id)
		}
		if ordered[id] {
			return nil, fmt.Errorf("doc order lists document %q twice", id)
		}
		ordered[id] = true
	}
	if len(ordered) != len(ownerOf) {
		return nil, fmt.Errorf("doc order lists %d documents, snapshot owns %d", len(ordered), len(ownerOf))
	}
	return owned, nil
}

// restoreDoc rebuilds one owned document's learning state.
func restoreDoc(ds docSnapshot) (*docState, error) {
	st := &docState{
		doc:         corpus.NewDocument(ds.ID, ds.TF),
		indexed:     make(map[string]bool, len(ds.Indexed)),
		stats:       make(map[string]*termStat, len(ds.Stats)),
		since:       ds.Since,
		publishedAt: ds.PublishedAt,
	}
	if st.doc.Length != ds.Length {
		// TF is authoritative; Length is redundant but must agree.
		return nil, fmt.Errorf("document %q length mismatch", ds.ID)
	}
	if st.since == nil {
		st.since = make(map[string]pollMark)
	}
	for _, t := range ds.Indexed {
		st.indexed[t] = true
	}
	for _, ts := range ds.Stats {
		st.stats[ts.Term] = &termStat{qf: ts.QF, maxQS: ts.MaxQS}
	}
	if len(ds.Banned) > 0 {
		st.banned = make(map[string]bool, len(ds.Banned))
		for _, t := range ds.Banned {
			st.banned[t] = true
		}
	}
	return st, nil
}
