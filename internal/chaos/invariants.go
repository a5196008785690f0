package chaos

import (
	"errors"
	"fmt"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// This file is the invariant registry. Each checker returns a *Violation
// with Invariant and Msg set (the harness pins Seed/Step/Op) or nil.
//
// To add an invariant: write a checker over deployment introspection
// (core.Network's PrimarySnapshot/ReplicaSnapshot/DocIndexInfo/ServedPostings
// and simnet.Network's Stats), return a named *Violation, and call it from
// harness.checkStep (per-step), checkPlacement's call sites (quiescent
// points), or finalSweep. See DESIGN.md § Correctness tooling.

// checkStats verifies telemetry conservation (invariant 4): transport
// counters are monotone and internally balanced, and the transport's view of
// peer liveness matches the harness model.
func checkStats(d *deployment, wantFailed, wantAlive int) *Violation {
	cur := d.Sim.Stats()
	bad := func(format string, args ...any) *Violation {
		return &Violation{Invariant: "telemetry", Msg: d.label + ": " + fmt.Sprintf(format, args...)}
	}
	prev := d.prev
	mono := []struct {
		name     string
		was, now int64
	}{
		{"Calls", prev.Calls, cur.Calls},
		{"Failed", prev.Failed, cur.Failed},
		{"Dropped", prev.Dropped, cur.Dropped},
		{"Expired", prev.Expired, cur.Expired},
		{"Bytes", prev.Bytes, cur.Bytes},
		{"LocalBypass", prev.LocalBypass, cur.LocalBypass},
	}
	for _, m := range mono {
		if m.now < m.was {
			return bad("counter %s went backwards: %d -> %d", m.name, m.was, m.now)
		}
	}
	for t, was := range prev.CallsByType {
		if cur.CallsByType[t] < was {
			return bad("CallsByType[%s] went backwards: %d -> %d", t, was, cur.CallsByType[t])
		}
	}
	var byType, byDest, bytesByType int64
	for _, v := range cur.CallsByType {
		byType += v
	}
	for _, v := range cur.CallsByDest {
		byDest += v
	}
	for _, v := range cur.BytesByType {
		bytesByType += v
	}
	if cur.Calls != byType {
		return bad("Calls=%d but sum(CallsByType)=%d", cur.Calls, byType)
	}
	if cur.Calls != byDest {
		return bad("Calls=%d but sum(CallsByDest)=%d", cur.Calls, byDest)
	}
	if cur.Bytes != bytesByType {
		return bad("Bytes=%d but sum(BytesByType)=%d", cur.Bytes, bytesByType)
	}
	if cur.Failed+cur.Dropped > cur.Calls {
		return bad("Failed(%d)+Dropped(%d) exceeds Calls(%d)", cur.Failed, cur.Dropped, cur.Calls)
	}
	if cur.PeersFailed != wantFailed {
		return bad("PeersFailed=%d, model says %d", cur.PeersFailed, wantFailed)
	}
	if cur.PeersAlive != wantAlive {
		return bad("PeersAlive=%d, model says %d", cur.PeersAlive, wantAlive)
	}
	d.prev = cur
	return nil
}

type termDoc struct {
	term string
	doc  index.DocID
}

// checkLedger verifies index/replica consistency (invariant 1a) on every
// step, faults active or not:
//
//   - Every live document's indexed term has its primary entry exactly where
//     the owner's holder of record says (owners only record successful
//     publishes, entries only vanish through acknowledged withdrawals — so
//     this direction holds even mid-fault).
//   - Every primary entry is explained: the owner indexes it there, or it is
//     on a stale-withdrawal list, or the fault ledger excuses it. An
//     unexplained entry while no fault is active is a violation; with faults
//     active it enters the ledger (a real system's crash garbage) and stays
//     excused.
//   - A term the advisory banned for a live document must have NO surviving
//     primary entry — never excusable (the stale-advisory bug).
//   - Replica entries must correspond to live (term, doc) pairs or be in the
//     ledger.
func checkLedger(d *deployment, faultCtx bool) *Violation {
	bad := func(format string, args ...any) *Violation {
		return &Violation{Invariant: "index_consistency", Msg: d.label + ": " + fmt.Sprintf(format, args...)}
	}
	expected := make(map[entryKey]bool)  // must exist
	explained := make(map[entryKey]bool) // allowed to exist
	banned := make(map[termDoc]bool)
	live := make(map[termDoc]bool)
	for _, id := range d.Net.Documents() {
		di, ok := d.Net.DocIndexInfo(id)
		if !ok {
			continue
		}
		for _, t := range di.Terms {
			live[termDoc{t, id}] = true
			if at, ok := di.PublishedAt[t]; ok {
				k := entryKey{peer: at, term: t, doc: id}
				expected[k] = true
				explained[k] = true
			}
		}
		for t, holders := range di.Stale {
			for _, a := range holders {
				// A stale holder may be carrying the withdrawn copy in either
				// role: its primary index (an unreached indexing peer) or its
				// replica index (a replica drop that failed and was reported
				// back for stale-list retry).
				explained[entryKey{peer: a, term: t, doc: id}] = true
				explained[entryKey{replica: true, peer: a, term: t, doc: id}] = true
				// The holder also still owes withdrawals to its own recorded
				// push set: those replicas are transitively pending, removed
				// when the stale retry reaches the holder and its sprite.replica
				// carries the withdrawal to them.
				for _, r := range d.Net.ReplicaLocsAt(a, t, id) {
					explained[entryKey{replica: true, peer: r, term: t, doc: id}] = true
				}
			}
		}
		for _, b := range di.Banned {
			banned[termDoc{b, id}] = true
		}
	}
	actual := make(map[entryKey]bool)
	for _, e := range d.Net.PrimarySnapshot() {
		k := entryKey{peer: e.Peer, term: e.Term, doc: e.Posting.Doc}
		actual[k] = true
		if explained[k] || d.tolerated[k] {
			// Stale-listed copies of a banned term are legitimate: the ban
			// removed the recorded primary, while old copies from failed
			// migration withdrawals await their stale-list retry.
			continue
		}
		if banned[termDoc{e.Term, e.Posting.Doc}] {
			// Never excused, even during faults: the advisory commits a ban
			// only when the recorded entry's removal succeeded, and every
			// other copy is stale-listed — an unexplained survivor means the
			// ban outran the withdrawal (the stale-advisory bug).
			return bad("banned term %q of live doc %s still has a primary entry at %s (stale advisory)",
				e.Term, e.Posting.Doc, e.Peer)
		}
		if faultCtx {
			d.tolerated[k] = true
			continue
		}
		return bad("unexplained primary entry (%s, %q, %s) with no fault active",
			e.Peer, e.Term, e.Posting.Doc)
	}
	for k := range expected {
		if !actual[k] {
			if _, ok := d.Net.Peer(k.peer); !ok {
				// The recorded holder left the network gracefully while the
				// owner was unreachable: the entry lives on at the leave-time
				// successor (ledgered there), and the record re-anchors when
				// the owner's reclaim sweep next runs. A record pointing at a
				// peer that still exists, though, must always be backed.
				continue
			}
			return bad("indexed term %q of %s missing its primary entry at %s",
				k.term, k.doc, k.peer)
		}
	}
	zombies := d.toleratedPrimaryTermDocs()
	for _, e := range d.Net.ReplicaSnapshot() {
		k := entryKey{replica: true, peer: e.Peer, term: e.Term, doc: e.Posting.Doc}
		if live[termDoc{e.Term, e.Posting.Doc}] || explained[k] || d.tolerated[k] {
			continue
		}
		if zombies[termDoc{e.Term, e.Posting.Doc}] {
			// A descendant of ledgered garbage: anti-entropy keeps a holder's
			// replica set in sync with its primary arc, so a tolerated zombie
			// primary legitimately re-replicates until a withdrawal reaches it.
			d.tolerated[k] = true
			continue
		}
		if faultCtx {
			d.tolerated[k] = true
			continue
		}
		return bad("unexplained replica entry (%s, %q, %s) with no fault active",
			e.Peer, e.Term, e.Posting.Doc)
	}
	return nil
}

// toleratedPrimaryTermDocs returns the (term, doc) pairs that have a primary
// copy in the fault ledger. Replica copies of such pairs are excusable
// wherever they surface: the §7 anti-entropy exchange re-replicates whatever
// a holder's primary arc contains, garbage included.
func (d *deployment) toleratedPrimaryTermDocs() map[termDoc]bool {
	out := make(map[termDoc]bool)
	for k := range d.tolerated {
		if !k.replica {
			out[termDoc{k.term, k.doc}] = true
		}
	}
	return out
}

// checkStranded verifies, at quiescent points, that no primary entry sits on
// a peer other than its term's ring oracle owner. It scans from the entry
// side — unlike checkPlacement's ledger-side walk it also catches entries
// whose owner record was corrupted to agree with a wrong placement (the
// stranded-entry mutation), and leftovers of documents no longer shared.
// Entries in the fault ledger are excused.
func checkStranded(d *deployment) *Violation {
	for _, e := range d.Net.PrimarySnapshot() {
		if d.tolerated[entryKey{peer: e.Peer, term: e.Term, doc: e.Posting.Doc}] {
			continue
		}
		node, ok := d.Ring.Owner(chordid.HashKey(e.Term))
		if !ok {
			return &Violation{Invariant: "stranded",
				Msg: fmt.Sprintf("%s: no oracle owner for term %q", d.label, e.Term)}
		}
		if node.Addr() != e.Peer {
			return &Violation{Invariant: "stranded",
				Msg: fmt.Sprintf("%s: primary entry (%s, %q, %s) stranded: oracle owner is %s",
					d.label, e.Peer, e.Term, e.Posting.Doc, node.Addr())}
		}
	}
	return nil
}

// checkPlacement verifies oracle index placement (invariant 1b) at quiescent
// points: every live document's terms sit with the ring's oracle owner, the
// owner holds the primary entry, replicas exist on the owner's first
// ReplicationFactor successors, and no stale withdrawals are pending.
func checkPlacement(d *deployment) *Violation {
	bad := func(format string, args ...any) *Violation {
		return &Violation{Invariant: "placement", Msg: d.label + ": " + fmt.Sprintf(format, args...)}
	}
	primary := make(map[entryKey]bool)
	for _, e := range d.Net.PrimarySnapshot() {
		primary[entryKey{peer: e.Peer, term: e.Term, doc: e.Posting.Doc}] = true
	}
	replica := make(map[entryKey]bool)
	for _, e := range d.Net.ReplicaSnapshot() {
		replica[entryKey{replica: true, peer: e.Peer, term: e.Term, doc: e.Posting.Doc}] = true
	}
	rf := d.Net.Config().ReplicationFactor
	for _, id := range d.Net.Documents() {
		di, ok := d.Net.DocIndexInfo(id)
		if !ok {
			continue
		}
		if len(di.Stale) > 0 {
			return bad("doc %s has stale withdrawals pending on a healed network: %v", id, di.Stale)
		}
		for _, t := range di.Terms {
			node, ok := d.Ring.Owner(chordid.HashKey(t))
			if !ok {
				return bad("no oracle owner for term %q", t)
			}
			at := di.PublishedAt[t]
			if at != node.Addr() {
				return bad("term %q of %s published at %s, oracle owner is %s", t, id, at, node.Addr())
			}
			if !primary[entryKey{peer: at, term: t, doc: id}] {
				return bad("term %q of %s missing primary entry at oracle owner %s", t, id, at)
			}
			for _, succ := range successorsOf(d.Ring, node, rf) {
				if !replica[entryKey{replica: true, peer: succ, term: t, doc: id}] {
					return bad("term %q of %s missing replica at %s (successor of %s)",
						t, id, succ, node.Addr())
				}
			}
		}
	}
	return nil
}

// successorsOf returns the first rf ring successors of node, excluding the
// node itself — the §7 replica set the indexing peer pushes to.
func successorsOf(ring *chord.Ring, node *chord.Node, rf int) []simnet.Addr {
	if rf <= 0 {
		return nil
	}
	nodes := ring.Nodes() // sorted by ring position
	idx := -1
	for i, n := range nodes {
		if n.Addr() == node.Addr() {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]simnet.Addr, 0, rf)
	for i := 1; i < len(nodes) && len(out) < rf; i++ {
		succ := nodes[(idx+i)%len(nodes)]
		if succ.Addr() == node.Addr() {
			continue
		}
		out = append(out, succ.Addr())
	}
	return out
}

// checkHistories verifies cache transparency's history half (invariant 3):
// the primary and twin cached the same query multiset at every peer,
// regardless of cache hits short-circuiting network fetches.
func checkHistories(pri, twin *deployment) *Violation {
	a, b := pri.Net.HistoryMultiset(), twin.Net.HistoryMultiset()
	for addr, am := range a {
		bm := b[addr]
		for q, n := range am {
			if bm[q] != n {
				return &Violation{Invariant: "cache_transparency",
					Msg: fmt.Sprintf("history of %s: primary cached %q ×%d, twin ×%d", addr, q, n, bm[q])}
			}
		}
	}
	for addr, bm := range b {
		am := a[addr]
		for q, n := range bm {
			if am[q] != n {
				return &Violation{Invariant: "cache_transparency",
					Msg: fmt.Sprintf("history of %s: twin cached %q ×%d, primary ×%d", addr, q, n, am[q])}
			}
		}
	}
	return nil
}

// checkEmpty verifies invariant 5's entry half after the final unshare-all:
// nothing survives in any index except entries the fault ledger excuses.
func checkEmpty(d *deployment) *Violation {
	if docs := d.Net.Documents(); len(docs) > 0 {
		return &Violation{Invariant: "leaks",
			Msg: fmt.Sprintf("%s: %d documents still shared after unshare-all: %v", d.label, len(docs), docs)}
	}
	for _, e := range d.Net.PrimarySnapshot() {
		k := entryKey{peer: e.Peer, term: e.Term, doc: e.Posting.Doc}
		if !d.tolerated[k] {
			return &Violation{Invariant: "leaks",
				Msg: fmt.Sprintf("%s: leaked primary entry (%s, %q, %s) after unshare-all", d.label, e.Peer, e.Term, e.Posting.Doc)}
		}
	}
	zombies := d.toleratedPrimaryTermDocs()
	for _, e := range d.Net.ReplicaSnapshot() {
		k := entryKey{replica: true, peer: e.Peer, term: e.Term, doc: e.Posting.Doc}
		if !d.tolerated[k] && !zombies[termDoc{e.Term, e.Posting.Doc}] {
			return &Violation{Invariant: "leaks",
				Msg: fmt.Sprintf("%s: leaked replica entry (%s, %q, %s) after unshare-all", d.label, e.Peer, e.Term, e.Posting.Doc)}
		}
	}
	return nil
}

// oracleSearch recomputes a search's expected ranking from introspected
// ground truth (invariant 2): resolve each distinct term to the ring's
// oracle owner, take exactly what that peer would serve (primary or replica
// fallback), and fold contributions in the same order with the same
// accumulator the real query path uses — so agreement is bit-exact, not
// approximate. Terms in skip (reported lost by the search) are excluded.
func oracleSearch(d *deployment, terms []string, k int, skip map[string]bool) ir.RankedList {
	qtf := make(map[string]int, len(terms))
	for _, t := range terms {
		qtf[t]++
	}
	n := d.Net.Config().SurrogateN
	acc := ir.NewAccumulator()
	seen := make(map[string]bool, len(terms))
	for _, term := range terms {
		if seen[term] {
			continue
		}
		seen[term] = true
		if skip[term] {
			continue
		}
		node, ok := d.Ring.Owner(chordid.HashKey(term))
		if !ok {
			continue
		}
		ps, _, ok := d.Net.ServedPostings(node.Addr(), term)
		if !ok || len(ps) == 0 {
			continue
		}
		df := len(ps)
		wq := ir.QueryWeight(qtf[term], len(terms), n, df)
		for _, p := range ps {
			acc.Accumulate(p.Doc, wq*ir.Weight(p.NormFreq(), n, df), p.DocLen)
		}
	}
	return acc.Ranked().Top(k)
}

// oracleSimilar recomputes a similarity query's expected ranking from
// introspected ground truth: the query document's sketch and routing terms
// from its owner's state, candidate postings from what each routing term's
// indexing peer would serve right now, folded in routing-term order through
// the same SketchRanker the real path uses — bit-exact agreement, not
// approximate. Terms in skip (reported lost by the search) are excluded.
// Valid for Refine = 0 configurations, which is what chaos deployments run.
func oracleSimilar(d *deployment, doc index.DocID, k int, skip map[string]bool) ir.RankedList {
	qsketch, ok := d.Net.DocSketch(doc)
	if !ok {
		return nil
	}
	route, err := d.Net.SimilarRouteTerms(doc)
	if err != nil {
		return nil
	}
	r := ir.NewSketchRanker([]byte(qsketch), k)
	for _, term := range route {
		if skip[term] {
			continue
		}
		node, ok := d.Ring.Owner(chordid.HashKey(term))
		if !ok {
			continue
		}
		ps, _, ok := d.Net.ServedPostings(node.Addr(), term)
		if !ok {
			continue
		}
		for _, p := range ps {
			if p.Doc == doc {
				continue
			}
			r.Offer([]byte(p.Doc), []byte(p.Sketch))
		}
	}
	return r.Ranked()
}

// rankEqual compares two ranked lists for bit-exact equality.
func rankEqual(a, b ir.RankedList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func describeRank(rl ir.RankedList) string {
	out := "["
	for i, h := range rl {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%.17g", h.Doc, h.Score)
	}
	return out + "]"
}

// failedTerms extracts the dropped-term set from a partial-results error.
func failedTerms(err error) map[string]bool {
	var pe *core.PartialError
	if !errors.As(err, &pe) {
		return nil
	}
	out := make(map[string]bool, len(pe.Failures))
	for _, f := range pe.Failures {
		out[f.Term] = true
	}
	return out
}

// checkOpOutcome validates one op's observable results across deployments:
// errors are only acceptable in fault context, search rankings must match the
// oracle (invariant 2, gated while loss/drops taint routing), and the twin
// must agree with the primary exactly (invariant 3).
func (h *harness) checkOpOutcome(op Op, outs []opOut, faultCtx bool) *Violation {
	deps := h.deployments()
	for i, out := range outs {
		d := deps[i]
		if out.err != nil && !faultCtx {
			return &Violation{Invariant: "clean_run",
				Msg: fmt.Sprintf("%s: %s failed with no fault active: %v", d.label, kindNames[op.Kind], out.err)}
		}
		if op.Kind == KSearch && !h.taint {
			skip := failedTerms(out.err)
			if out.err != nil && skip == nil {
				continue // non-partial error in fault context: no ranking to check
			}
			want := oracleSearch(d, op.Terms, op.K, skip)
			if !rankEqual(out.rl, want) {
				return &Violation{Invariant: "oracle",
					Msg: fmt.Sprintf("%s: search %q k=%d returned %s, oracle says %s",
						d.label, op.Terms, op.K, describeRank(out.rl), describeRank(want))}
			}
		}
		if op.Kind == KSimilar && !h.taint {
			skip := failedTerms(out.err)
			if out.err != nil && skip == nil {
				continue // non-partial error in fault context: no ranking to check
			}
			want := oracleSimilar(d, index.DocID(op.Doc), op.K, skip)
			if !rankEqual(out.rl, want) {
				return &Violation{Invariant: "oracle",
					Msg: fmt.Sprintf("%s: similar %s k=%d returned %s, oracle says %s",
						d.label, op.Doc, op.K, describeRank(out.rl), describeRank(want))}
			}
		}
	}
	if h.twin != nil && len(outs) == 2 && op.Kind.read() {
		p, t := outs[0], outs[1]
		if (p.err == nil) != (t.err == nil) {
			return &Violation{Invariant: "cache_transparency",
				Msg: fmt.Sprintf("%s: primary err=%v, twin err=%v", op, p.err, t.err)}
		}
		if !rankEqual(p.rl, t.rl) {
			return &Violation{Invariant: "cache_transparency",
				Msg: fmt.Sprintf("%s: primary ranked %s, twin ranked %s", op, describeRank(p.rl), describeRank(t.rl))}
		}
		if len(p.exp) != len(t.exp) {
			return &Violation{Invariant: "cache_transparency",
				Msg: fmt.Sprintf("%s: expansion terms diverge: %v vs %v", op, p.exp, t.exp)}
		}
		for i := range p.exp {
			if p.exp[i] != t.exp[i] {
				return &Violation{Invariant: "cache_transparency",
					Msg: fmt.Sprintf("%s: expansion terms diverge: %v vs %v", op, p.exp, t.exp)}
			}
		}
	}
	return nil
}
