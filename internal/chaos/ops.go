package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
)

// Kind enumerates the operations the generator can emit.
type Kind int

const (
	KShare Kind = iota
	KUnshare
	KSearch
	KSearchExpanded
	KInsertQuery
	KLearn
	KFail
	KRecover
	KJoin
	KLoss
	KDrop
	KHeal
	KLeave
	KMassJoin
	KMassLeave
	KSimilar
)

var kindNames = map[Kind]string{
	KShare: "share", KUnshare: "unshare", KSearch: "search",
	KSearchExpanded: "search_expanded", KInsertQuery: "insert_query",
	KLearn: "learn", KFail: "fail", KRecover: "recover",
	KJoin: "join", KLoss: "loss", KDrop: "drop", KHeal: "heal",
	KLeave: "leave", KMassJoin: "mass_join", KMassLeave: "mass_leave",
	KSimilar: "similar",
}

// read reports whether the op only reads index state (it may append to query
// histories); read runs execute concurrently under Parallelism > 1.
func (k Kind) read() bool {
	return k == KSearch || k == KSearchExpanded || k == KInsertQuery || k == KSimilar
}

// Op is one concrete, self-contained operation. Every field is fixed at
// generation time, so any subsequence replays deterministically; an op whose
// precondition no longer holds (sharing a shared doc, failing a failed peer)
// executes as a deterministic no-op rather than depending on prior ops.
type Op struct {
	Kind  Kind
	Peer  string   // actor: search origin, share owner, fail/drop/leave target, join name
	Doc   string   // document id for share/unshare
	Terms []string // query terms; peer names for mass_join/mass_leave
	K     int      // top-k for searches
	Skip  int      // drop schedule: calls to let through first
	Count int      // drop schedule: calls to drop
	Loss  float64  // packet loss probability
}

func (o Op) String() string {
	var b strings.Builder
	b.WriteString(kindNames[o.Kind])
	switch o.Kind {
	case KShare, KUnshare:
		fmt.Fprintf(&b, " %s", o.Doc)
		if o.Kind == KShare {
			fmt.Fprintf(&b, " at %s", o.Peer)
		}
	case KSearch, KSearchExpanded, KInsertQuery:
		fmt.Fprintf(&b, " %q from %s k=%d", strings.Join(o.Terms, " "), o.Peer, o.K)
	case KSimilar:
		fmt.Fprintf(&b, " %s from %s k=%d", o.Doc, o.Peer, o.K)
	case KFail, KRecover, KJoin, KLeave:
		fmt.Fprintf(&b, " %s", o.Peer)
	case KMassJoin, KMassLeave:
		fmt.Fprintf(&b, " %s", strings.Join(o.Terms, ","))
	case KLoss:
		fmt.Fprintf(&b, " p=%.2f", o.Loss)
	case KDrop:
		fmt.Fprintf(&b, " to=%s skip=%d count=%d", o.Peer, o.Skip, o.Count)
	}
	return b.String()
}

// maxJoins bounds the j-named peers a generated sequence may add, across
// single joins and mass-join waves.
const maxJoins = 12

// Generate emits cfg.Steps operations as a pure function of cfg. A small
// generation-time model (what is shared, who is failed) biases choices toward
// effectual ops; the executor re-validates every precondition, so the
// sequence stays replayable after the shrinker removes arbitrary ops.
func Generate(cfg Config) []Op {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	type wk struct {
		kind   Kind
		weight int
	}
	table := []wk{
		{KShare, 14}, {KUnshare, 5}, {KSearch, 28}, {KSearchExpanded, 5},
		{KSimilar, 6}, {KInsertQuery, 8}, {KLearn, 13},
	}
	if cfg.FaultOps {
		table = append(table, wk{KFail, 6}, wk{KRecover, 5}, wk{KJoin, 2}, wk{KHeal, 4},
			wk{KLeave, 3}, wk{KMassJoin, 1}, wk{KMassLeave, 1})
		if !cfg.Twin {
			// Probabilistic loss consumes per-call randomness, so it cannot be
			// mirrored onto a twin with a different call pattern.
			table = append(table, wk{KLoss, 3}, wk{KDrop, 3})
		}
	}
	total := 0
	for _, e := range table {
		total += e.weight
	}

	pickKind := func() Kind {
		r := rng.Intn(total)
		for _, e := range table {
			if r < e.weight {
				return e.kind
			}
			r -= e.weight
		}
		return KSearch
	}
	pickTerm := func() string {
		return fmt.Sprintf("w%02d", int(float64(cfg.Vocab)*rng.Float64()*rng.Float64()))
	}
	pickTerms := func() []string {
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = pickTerm()
		}
		return out
	}
	basePeer := func() string { return fmt.Sprintf("c%d", rng.Intn(cfg.Peers)) }
	pickDoc := func() string { return fmt.Sprintf("doc%02d", rng.Intn(cfg.Docs)) }

	shared := make(map[string]bool)
	failed := make(map[string]bool)
	// present is the generation-time membership model: graceful leaves remove
	// peers for good, joins (single or mass) add them. The executor
	// re-validates, so the model only biases choices toward effectual ops.
	present := make(map[string]bool, cfg.Peers)
	for i := 0; i < cfg.Peers; i++ {
		present[fmt.Sprintf("c%d", i)] = true
	}
	joins := 0
	// pickLeaver names a peer that could leave gracefully right now — present,
	// not failed, and not needed to keep MinAlive peers up — removing it from
	// the model. Sorted iteration keeps the choice a pure function of the rng.
	pickLeaver := func() (string, bool) {
		if len(present)-len(failed)-1 < cfg.MinAlive {
			return "", false
		}
		cand := make([]string, 0, len(present))
		for n := range present {
			if !failed[n] {
				cand = append(cand, n)
			}
		}
		if len(cand) == 0 {
			return "", false
		}
		sort.Strings(cand)
		name := cand[rng.Intn(len(cand))]
		delete(present, name)
		return name, true
	}

	ops := make([]Op, 0, cfg.Steps)
	for len(ops) < cfg.Steps {
		op := Op{Kind: pickKind()}
		switch op.Kind {
		case KShare:
			op.Doc, op.Peer = pickDoc(), basePeer()
			shared[op.Doc] = true
		case KUnshare:
			op.Doc = pickDoc()
			if len(shared) > 0 && !shared[op.Doc] {
				// Bias toward an actually shared doc (sorted for determinism).
				ids := make([]string, 0, len(shared))
				for id := range shared {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				op.Doc = ids[rng.Intn(len(ids))]
			}
			delete(shared, op.Doc)
		case KSearch, KSearchExpanded, KInsertQuery:
			op.Peer, op.Terms, op.K = basePeer(), pickTerms(), 3+rng.Intn(8)
		case KSimilar:
			op.Peer, op.K = basePeer(), 3+rng.Intn(8)
			op.Doc = pickDoc()
			if len(shared) > 0 && !shared[op.Doc] {
				// Bias toward an actually shared doc (sorted for determinism).
				ids := make([]string, 0, len(shared))
				for id := range shared {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				op.Doc = ids[rng.Intn(len(ids))]
			}
		case KFail:
			op.Peer = basePeer()
			if present[op.Peer] {
				failed[op.Peer] = true
			}
		case KRecover:
			op.Peer = basePeer()
			if len(failed) > 0 {
				names := make([]string, 0, len(failed))
				for n := range failed {
					names = append(names, n)
				}
				sort.Strings(names)
				op.Peer = names[rng.Intn(len(names))]
			}
			delete(failed, op.Peer)
		case KJoin:
			if joins >= maxJoins {
				continue
			}
			op.Peer = fmt.Sprintf("j%d", joins)
			present[op.Peer] = true
			joins++
		case KLeave:
			name, ok := pickLeaver()
			if !ok {
				continue
			}
			op.Peer = name
		case KMassJoin:
			want := 2 + rng.Intn(3)
			if joins+want > maxJoins {
				want = maxJoins - joins
			}
			if want <= 0 {
				continue
			}
			for i := 0; i < want; i++ {
				name := fmt.Sprintf("j%d", joins)
				op.Terms = append(op.Terms, name)
				present[name] = true
				joins++
			}
		case KMassLeave:
			want := 2 + rng.Intn(3)
			for i := 0; i < want; i++ {
				name, ok := pickLeaver()
				if !ok {
					break
				}
				op.Terms = append(op.Terms, name)
			}
			if len(op.Terms) == 0 {
				continue
			}
		case KLoss:
			op.Loss = 0.05 + 0.2*rng.Float64()
			if rng.Intn(4) == 0 {
				op.Loss = 0
			}
		case KDrop:
			op.Peer, op.Skip, op.Count = basePeer(), rng.Intn(20), 1+rng.Intn(3)
		case KHeal:
			failed = make(map[string]bool)
		}
		ops = append(ops, op)
	}
	return ops
}

// opOut is the observable outcome of one op on one deployment.
type opOut struct {
	rl  ir.RankedList
	exp []string
	err error
}

// effective validates op against the execution-time model. Invalid ops are
// deterministic no-ops so any subsequence of a generated run replays cleanly.
func (h *harness) effective(op Op) bool {
	switch op.Kind {
	case KShare:
		return !h.shared[op.Doc] && h.nodeExists(op.Peer)
	case KUnshare:
		return h.shared[op.Doc]
	case KSearch, KSearchExpanded, KInsertQuery:
		// The origin peer may have left gracefully or be crashed. A crashed
		// peer cannot originate queries — and its routing tables go stale the
		// moment membership changes behind it, so a query issued "from" it
		// would be measuring a nonsensical scenario, not a system property.
		return h.nodeExists(op.Peer) && !h.failed[op.Peer]
	case KSimilar:
		// A similarity query needs a shared query document and a live origin.
		return h.shared[op.Doc] && h.nodeExists(op.Peer) && !h.failed[op.Peer]
	case KFail:
		if h.failed[op.Peer] || !h.nodeExists(op.Peer) {
			return false
		}
		if len(h.failed) >= h.cfg.MaxFailed {
			return false
		}
		return h.aliveCount()-1 >= h.cfg.MinAlive
	case KRecover:
		return h.failed[op.Peer]
	case KJoin:
		return !h.nodeExists(op.Peer)
	case KLeave:
		return h.leavable(op.Peer)
	case KMassJoin:
		for _, name := range op.Terms {
			if !h.nodeExists(name) {
				return true
			}
		}
		return false
	case KMassLeave:
		for _, name := range op.Terms {
			if h.leavable(name) {
				return true
			}
		}
		return false
	case KDrop:
		return h.nodeExists(op.Peer)
	}
	return true
}

// leavable reports whether name can depart gracefully right now: it exists,
// is alive (a failed peer cannot run the handoff protocol), and its departure
// keeps MinAlive peers up.
func (h *harness) leavable(name string) bool {
	return h.nodeExists(name) && !h.failed[name] && h.aliveCount()-1 >= h.cfg.MinAlive
}

func (h *harness) nodeExists(name string) bool {
	_, ok := h.pri.nodes[simnet.Addr(name)]
	return ok
}

func (h *harness) aliveCount() int {
	return len(h.pri.nodes) - len(h.failed)
}

// updateModel folds a (validated) op into the shared fault/share model. ok
// is the primary deployment's outcome: Share rolls back its registration
// when the initial publishes fail, so a faulted share leaves the document
// unshared.
func (h *harness) updateModel(op Op, ok bool) {
	switch op.Kind {
	case KShare:
		if ok {
			h.shared[op.Doc] = true
			h.docOwner[op.Doc] = op.Peer
		}
	case KUnshare:
		delete(h.shared, op.Doc)
		delete(h.docOwner, op.Doc)
	case KFail:
		h.failed[op.Peer] = true
		h.churned = true
	case KRecover:
		delete(h.failed, op.Peer)
		h.churned = true
	case KJoin, KMassJoin:
		h.churned = true
	case KLeave, KMassLeave:
		// A graceful leave withdraws every document the departing peer owned;
		// drop them from the share model. apply already removed the peers from
		// d.nodes, so departed owners are exactly those that no longer exist.
		for doc, owner := range h.docOwner {
			if !h.nodeExists(owner) {
				delete(h.shared, doc)
				delete(h.docOwner, doc)
			}
		}
		h.churned = true
	case KLoss:
		h.loss = op.Loss
		if op.Loss > 0 {
			h.taint = true
		}
	case KDrop:
		h.taint = true
	}
}

// stabilizeRounds bounds ring repair after a liveness or membership change.
const stabilizeRounds = 64

// apply executes op against one deployment. Preconditions were already
// validated by effective(); fault-model bookkeeping happens in updateModel.
func (h *harness) apply(d *deployment, op Op) opOut {
	switch op.Kind {
	case KShare:
		doc, ok := h.docs[op.Doc]
		if !ok {
			return opOut{err: fmt.Errorf("chaos: unknown doc %s", op.Doc)}
		}
		return opOut{err: d.Net.ShareCtx(context.Background(), simnet.Addr(op.Peer), doc)}
	case KUnshare:
		return opOut{err: d.Net.Unshare(index.DocID(op.Doc))}
	case KSearch:
		rl, err := d.Net.SearchCtx(context.Background(), simnet.Addr(op.Peer), op.Terms, op.K)
		return opOut{rl: rl, err: err}
	case KSimilar:
		rl, err := d.Net.SearchSimilarCtx(context.Background(), simnet.Addr(op.Peer), index.DocID(op.Doc), op.K)
		return opOut{rl: rl, err: err}
	case KSearchExpanded:
		rl, exp, err := d.Net.SearchExpanded(simnet.Addr(op.Peer), op.Terms, op.K, core.ExpandOptions{})
		return opOut{rl: rl, exp: exp, err: err}
	case KInsertQuery:
		return opOut{err: d.Net.InsertQueryCtx(context.Background(), simnet.Addr(op.Peer), op.Terms)}
	case KLearn:
		_, err := d.Net.LearnAllCtx(context.Background())
		return opOut{err: err}
	case KFail:
		d.Sim.Fail(simnet.Addr(op.Peer))
		d.Ring.StabilizeLists(stabilizeRounds)
		d.Ring.RepairFingers()
		d.Net.InvalidateCaches()
		return opOut{}
	case KRecover:
		d.Sim.Recover(simnet.Addr(op.Peer))
		d.Ring.StabilizeLists(stabilizeRounds)
		d.Ring.RepairFingers()
		d.Net.InvalidateCaches()
		return opOut{}
	case KJoin:
		return opOut{err: h.join(d, op.Peer)}
	case KLeave:
		return opOut{err: h.leave(d, op.Peer)}
	case KMassJoin:
		for _, name := range op.Terms {
			if _, ok := d.nodes[simnet.Addr(name)]; ok {
				continue
			}
			if err := h.join(d, name); err != nil {
				return opOut{err: err}
			}
		}
		return opOut{}
	case KMassLeave:
		for _, name := range op.Terms {
			// Re-check per victim against this deployment: each departure
			// shrinks the ring, and the MinAlive floor must hold throughout.
			if _, ok := d.nodes[simnet.Addr(name)]; !ok || h.failed[name] ||
				len(d.nodes)-len(h.failed)-1 < h.cfg.MinAlive {
				continue
			}
			if err := h.leave(d, name); err != nil {
				return opOut{err: err}
			}
		}
		return opOut{}
	case KLoss:
		d.Sim.SetPacketLoss(op.Loss)
		return opOut{}
	case KDrop:
		d.Sim.DropCallsAfter(simnet.Addr(op.Peer), op.Skip, op.Count)
		return opOut{}
	}
	return opOut{err: fmt.Errorf("chaos: unhandled op %s", op)}
}

// join adds a named node to a deployment's ring through the join protocol and
// adopts it into the SPRITE network.
func (h *harness) join(d *deployment, name string) error {
	node, err := d.Ring.AddNode(name)
	if err != nil {
		return err
	}
	d.Net.Adopt(node)
	// Bootstrap off any alive member — base peers may have left gracefully,
	// so fall back to the sorted membership when none remain.
	var boot simnet.Addr
	for i := 0; i < h.cfg.Peers; i++ {
		cand := simnet.Addr(fmt.Sprintf("c%d", i))
		if _, ok := d.nodes[cand]; ok && !h.failed[string(cand)] {
			boot = cand
			break
		}
	}
	if boot == "" {
		names := make([]string, 0, len(d.nodes))
		for a := range d.nodes {
			names = append(names, string(a))
		}
		sort.Strings(names)
		for _, nm := range names {
			if !h.failed[nm] {
				boot = simnet.Addr(nm)
				break
			}
		}
	}
	bootNode, ok := d.nodes[boot]
	if !ok {
		return fmt.Errorf("chaos: no alive bootstrap for join")
	}
	if err := node.Join(bootNode); err != nil {
		return err
	}
	d.nodes[node.Addr()] = node
	d.Ring.StabilizeLists(stabilizeRounds)
	d.Ring.RepairFingers()
	d.Net.InvalidateCaches()
	return nil
}

// leave departs name gracefully from one deployment. Entries whose owners
// could not be told about the handoff enter the deployment's fault ledger:
// they live at the leave-time successor with owner records that will only
// re-anchor once the owner is reachable again (FlushStaleAll's reclaim). An
// install that never reached the successor hands nothing over: the entries
// leave with the peer, as a crash's would, and their replica copies are
// orphans no record reaches, so they enter the ledger too.
func (h *harness) leave(d *deployment, name string) error {
	held := make(map[termDoc]bool)
	for _, e := range d.Net.PrimarySnapshot() {
		if e.Peer == simnet.Addr(name) {
			held[termDoc{e.Term, e.Posting.Doc}] = true
		}
	}
	rep, err := d.Net.Leave(simnet.Addr(name))
	if err != nil {
		return err
	}
	for _, e := range rep.Unrelocated {
		d.tolerated[entryKey{peer: e.Peer, term: e.Term, doc: e.Posting.Doc}] = true
	}
	if rep.Handoffs == 0 && len(rep.Unrelocated) == 0 {
		for _, e := range d.Net.ReplicaSnapshot() {
			if held[termDoc{e.Term, e.Posting.Doc}] {
				d.tolerated[entryKey{replica: true, peer: e.Peer, term: e.Term, doc: e.Posting.Doc}] = true
			}
		}
	}
	delete(d.nodes, simnet.Addr(name))
	d.Ring.StabilizeLists(stabilizeRounds)
	d.Ring.RepairFingers()
	d.Net.InvalidateCaches()
	return nil
}

// heal is the recover-everything super-op: revive all failed peers, clear all
// injected faults, repair the ring, and run the peer-driven maintenance sweep
// — misplaced entries shed to their arc owners, replica sets reconcile via
// anti-entropy, and owners flush stale withdrawals and reclaim records
// orphaned by departures; the replica bound is checked right after the
// Repair. No learning sweep is involved: placement after a heal is entirely
// the repair subsystem's doing. heal is also the first
// stage of the final sweep, so it must always converge — failure to do so is
// itself a violation.
func (h *harness) heal() *Violation {
	names := make([]string, 0, len(h.failed))
	for n := range h.failed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, d := range h.deployments() {
		var v *Violation
		d.Run(func() {
			for _, n := range names {
				d.Sim.Recover(simnet.Addr(n))
			}
			d.Sim.ClearDrops()
			d.Sim.SetPacketLoss(0)
			d.Ring.StabilizeLists(stabilizeRounds)
			d.Ring.RepairFingers()
			if !d.Ring.ConvergedLists() {
				v = &Violation{Invariant: "heal",
					Msg: fmt.Sprintf("%s: ring did not converge after %d stabilization rounds", d.label, stabilizeRounds)}
				return
			}
			d.Net.InvalidateCaches()
			d.Net.FlushStaleAll()
			d.Net.Repair()
		})
		if v == nil {
			v = h.afterRepair(d)
		}
		if v != nil {
			return v
		}
		d.Run(d.Net.FlushStaleAll)
	}
	h.failed = make(map[string]bool)
	h.loss = 0
	h.taint = false
	h.churned = false
	return nil
}
