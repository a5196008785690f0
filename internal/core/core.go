// Package core implements SPRITE — Selective PRogressive Index Tuning by
// Examples (Li, Jagadish, Tan; ICDE 2007) — on top of the Chord overlay.
//
// Every peer plays two roles (§3). As an *owner peer* it shares documents:
// it selects a small set of global index terms per document (initially the
// most frequent terms, §5.2), publishes them into the DHT, and periodically
// *learns* better terms from the history of queries cached at indexing peers
// (§5.3, Algorithm 1). As an *indexing peer* it maintains inverted lists for
// the terms the overlay assigns to it, plus a bounded history of recent
// queries mentioning those terms.
//
// Query processing (§4) hashes each keyword to its indexing peer, pulls the
// postings (term frequency, document length, indexed document frequency),
// and lets the querying peer consolidate TF·IDF partial scores with the Lee
// et al. similarity. The corpus size N is unknowable in a P2P setting, so a
// fixed large surrogate is used; indexed document frequency n'_k plays the
// role of document frequency.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/repair"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/sketch"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// Config holds SPRITE's tunables, with the paper's §6.2 defaults.
type Config struct {
	// InitialTerms is F, the number of most-frequent terms published when a
	// document is first shared. Paper default: 5.
	InitialTerms int
	// TermsPerIteration is the number of new terms each learning iteration
	// may add (or, at the cap, replace). Paper default: 5.
	TermsPerIteration int
	// MaxIndexTerms caps the number of global index terms per document
	// ("we limit the maximum number of terms to be indexed to a small value
	// (say, 30)", §5). Once reached, learning only replaces terms.
	MaxIndexTerms int
	// HistoryCap bounds each indexing peer's cached query history ("each
	// indexing peer maintains only the most recently issued queries", §3).
	HistoryCap int
	// ReplicationFactor is the number of successor peers each index entry is
	// replicated to (§7). 0 disables replication.
	ReplicationFactor int
	// SurrogateN is the fixed large N used in IDF computations (§4).
	SurrogateN int
	// HotTermDF enables the §7 load-balancing advisory: when a poll reveals
	// that one of a document's index terms has an indexed document frequency
	// of at least HotTermDF, the owner drops the term — its IDF is so low it
	// contributes almost nothing to similarity — and the freed slot goes to
	// the next best term. 0 disables the advisory.
	HotTermDF int
	// Score selects the learning score function. The zero value is the
	// paper's Score(t,D) = qScore·log₁₀(QF); the alternatives exist for the
	// ablation study of this design choice (see DESIGN.md).
	Score ScoreVariant
	// Telemetry, when non-nil, receives SPRITE-level metrics (queries
	// served, postings cache hits/misses, learning rounds and index changes,
	// publishes/retires) and per-query traces. Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Cache configures the query-path caches (postings by term, results by
	// query) with singleflight coalescing and write invalidation. The zero
	// value disables caching, preserving the paper's exact message counts.
	Cache CacheConfig
	// Resilience configures the query path's fault tolerance (retry/backoff,
	// per-attempt timeouts, hedging, replica failover). The zero value
	// disables it all, preserving the paper's exact message counts.
	Resilience ResilienceConfig
	// Parallelism bounds the query execution engine's per-term fan-out: the
	// number of concurrent DHT lookups/postings fetches per query, and the
	// concurrent document sweeps in LearnAll/RefreshAll. 0 derives the bound
	// from GOMAXPROCS; 1 is the legacy sequential path. Results are
	// bit-identical across settings (see internal/fanout).
	Parallelism int
	// Sketch configures per-document feature sketches and the similarity
	// query path (SearchSimilar). When enabled, every published posting
	// carries the owning document's serialized sketch, costing
	// ~Dims+2 bytes per posting on the wire and in indexing-peer storage.
	// The zero value disables sketching; SearchSimilar then fails with
	// ErrSketchDisabled.
	Sketch sketch.Config
	// Clock drives every time-dependent mechanism in the core: fan-out
	// worker registration, resilience backoff/timeouts/hedging, cache TTLs,
	// and query-latency observation. Nil is the wall clock (production
	// behavior); virtual-time experiments inject the deployment's
	// *vtime.Sim so all of it runs on the deterministic scheduler.
	Clock vtime.Clock
}

// netMetrics caches the SPRITE-level instrument handles; all nil (inert)
// when no registry is configured.
type netMetrics struct {
	searches         *telemetry.Counter
	termsSkipped     *telemetry.Counter
	postingsServed   *telemetry.Counter
	primaryHits      *telemetry.Counter
	replicaHits      *telemetry.Counter
	misses           *telemetry.Counter
	queriesCached    *telemetry.Counter
	pollsServed      *telemetry.Counter
	pollQueries      *telemetry.Counter
	learnRounds      *telemetry.Counter
	learnChanges     *telemetry.Counter
	termsPublished   *telemetry.Counter
	termsRetired     *telemetry.Counter
	expansionRounds  *telemetry.Counter
	simSearches      *telemetry.Counter
	simFloods        *telemetry.Counter
	simCandidates    *telemetry.Counter
	retries          *telemetry.Counter
	failovers        *telemetry.Counter
	hedges           *telemetry.Counter
	partials         *telemetry.Counter
	recordErrors     *telemetry.Counter
	repairHandoffs   *telemetry.Counter
	repairReconciles *telemetry.Counter
	repairDivergent  *telemetry.Counter
	fetchAttempts    *telemetry.Histogram
	queryLatency     *telemetry.Histogram
}

func newNetMetrics(reg *telemetry.Registry) netMetrics {
	return netMetrics{
		searches:         reg.Counter("sprite.searches"),
		termsSkipped:     reg.Counter("sprite.search.terms_skipped"),
		postingsServed:   reg.Counter("sprite.postings.served"),
		primaryHits:      reg.Counter("sprite.postings.primary_hits"),
		replicaHits:      reg.Counter("sprite.postings.replica_hits"),
		misses:           reg.Counter("sprite.postings.misses"),
		queriesCached:    reg.Counter("sprite.queries.cached"),
		pollsServed:      reg.Counter("sprite.polls.served"),
		pollQueries:      reg.Counter("sprite.polls.queries_returned"),
		learnRounds:      reg.Counter("sprite.learn.rounds"),
		learnChanges:     reg.Counter("sprite.learn.index_changes"),
		termsPublished:   reg.Counter("sprite.index.terms_published"),
		termsRetired:     reg.Counter("sprite.index.terms_retired"),
		expansionRounds:  reg.Counter("sprite.search.expansions"),
		simSearches:      reg.Counter("sprite.similar.searches"),
		simFloods:        reg.Counter("sprite.similar.floods"),
		simCandidates:    reg.Counter("sprite.similar.candidates"),
		retries:          reg.Counter("sprite.resilience.retries"),
		failovers:        reg.Counter("sprite.resilience.failovers"),
		hedges:           reg.Counter("sprite.resilience.hedges"),
		partials:         reg.Counter("sprite.resilience.partials"),
		recordErrors:     reg.Counter("sprite.fanout.record_errors"),
		repairHandoffs:   reg.Counter(repair.MetricHandoffs),
		repairReconciles: reg.Counter(repair.MetricReconciles),
		repairDivergent:  reg.Counter(repair.MetricDivergentTerms),
		fetchAttempts:    reg.Histogram("sprite.resilience.fetch_attempts"),
		queryLatency:     reg.Histogram("sprite.query.latency_us"),
	}
}

// ScoreVariant enumerates learning score functions for the ablation study of
// §5.3's combined formula.
type ScoreVariant int

const (
	// ScoreQScoreLogQF is the paper's formula: qScore · log₁₀(QF). The
	// logarithm damps QF so that high-quality (high-qScore) queries dominate
	// noisy popular terms.
	ScoreQScoreLogQF ScoreVariant = iota
	// ScoreQScoreOnly ranks by max qScore alone (ignores how often a term is
	// queried).
	ScoreQScoreOnly
	// ScoreQFOnly ranks by query frequency alone (ignores query quality).
	ScoreQFOnly
	// ScoreQScoreTimesQF multiplies without the logarithm (popularity
	// dominates).
	ScoreQScoreTimesQF
)

// String implements fmt.Stringer for experiment reports.
func (v ScoreVariant) String() string {
	switch v {
	case ScoreQScoreLogQF:
		return "qscore*logQF"
	case ScoreQScoreOnly:
		return "qscore-only"
	case ScoreQFOnly:
		return "qf-only"
	case ScoreQScoreTimesQF:
		return "qscore*QF"
	}
	return fmt.Sprintf("ScoreVariant(%d)", int(v))
}

// FillDefaults returns the config with zero fields replaced by the paper's
// defaults.
func (c Config) FillDefaults() Config {
	if c.InitialTerms == 0 {
		c.InitialTerms = 5
	}
	if c.TermsPerIteration == 0 {
		c.TermsPerIteration = 5
	}
	if c.MaxIndexTerms == 0 {
		c.MaxIndexTerms = 30
	}
	if c.HistoryCap == 0 {
		c.HistoryCap = 4096
	}
	if c.SurrogateN == 0 {
		c.SurrogateN = ir.LargeN
	}
	c.Cache = c.Cache.fillDefaults()
	c.Sketch = c.Sketch.FillDefaults()
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.InitialTerms < 1:
		return fmt.Errorf("core: InitialTerms = %d, need >= 1", c.InitialTerms)
	case c.TermsPerIteration < 0:
		return fmt.Errorf("core: TermsPerIteration = %d, need >= 0", c.TermsPerIteration)
	case c.MaxIndexTerms < c.InitialTerms:
		return fmt.Errorf("core: MaxIndexTerms = %d smaller than InitialTerms = %d", c.MaxIndexTerms, c.InitialTerms)
	case c.HistoryCap < 1:
		return fmt.Errorf("core: HistoryCap = %d, need >= 1", c.HistoryCap)
	case c.ReplicationFactor < 0:
		return fmt.Errorf("core: ReplicationFactor = %d, need >= 0", c.ReplicationFactor)
	case c.SurrogateN < 2:
		return fmt.Errorf("core: SurrogateN = %d, need >= 2", c.SurrogateN)
	case c.HotTermDF < 0:
		return fmt.Errorf("core: HotTermDF = %d, need >= 0", c.HotTermDF)
	case c.Parallelism < 0:
		return fmt.Errorf("core: Parallelism = %d, need >= 0", c.Parallelism)
	}
	if err := c.Cache.validate(); err != nil {
		return err
	}
	if err := c.Sketch.Validate(); err != nil {
		return err
	}
	return c.Resilience.validate()
}

// Network is a running SPRITE deployment over a Chord ring. It is the
// package's entry point: share documents, insert queries, run learning
// iterations, and search. All methods are safe for concurrent use.
type Network struct {
	cfg    Config
	ring   *chord.Ring
	clock  vtime.Clock
	met    netMetrics
	caches netCaches
	resil  resil
	// sketcher projects shared documents into feature sketches; nil when
	// Config.Sketch is disabled.
	sketcher *sketch.Sketcher
	// exec is the query execution engine's fan-out executor. Per-term
	// pipelines (searchCtx, insertQuery, expansion) and owner sweeps
	// (LearnAll, RefreshAll, replication) all share its concurrency bound.
	exec *fanout.Executor

	// mu guards the membership and ownership maps below. It is never held
	// across a network call, only around map reads/writes, so it cannot
	// participate in a lock cycle with peer or document locks.
	mu    sync.RWMutex
	peers map[simnet.Addr]*Peer
	// order lists peers sorted by address for deterministic iteration.
	order []*Peer
	// ownerOf maps each shared document to its owner peer.
	ownerOf map[index.DocID]*Peer
	// docOrder preserves share order so learning sweeps are deterministic.
	docOrder []index.DocID
}

// NewNetwork attaches SPRITE peers to every node currently in the ring. The
// ring should already be built (or joined and stabilized).
func NewNetwork(ring *chord.Ring, cfg Config) (*Network, error) {
	cfg = cfg.FillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clk := vtime.Default(cfg.Clock)
	var sk *sketch.Sketcher
	if cfg.Sketch.Enabled {
		var err error
		if sk, err = sketch.New(cfg.Sketch); err != nil {
			return nil, err
		}
	}
	n := &Network{
		cfg:      cfg,
		ring:     ring,
		clock:    clk,
		sketcher: sk,
		met:      newNetMetrics(cfg.Telemetry),
		caches:   newNetCaches(cfg.Cache, cfg.Telemetry, clk),
		resil:    newResil(cfg.Resilience, clk),
		exec:     fanout.NewClocked(cfg.Parallelism, cfg.Telemetry, clk),
		peers:    make(map[simnet.Addr]*Peer),
		ownerOf:  make(map[index.DocID]*Peer),
	}
	for _, node := range ring.Nodes() {
		p := newPeer(n, node)
		n.peers[node.Addr()] = p
		n.order = append(n.order, p)
		node.SetAppHandler(p)
		n.attachRepair(p)
	}
	sort.Slice(n.order, func(i, j int) bool { return n.order[i].Addr() < n.order[j].Addr() })
	return n, nil
}

// Config returns the active configuration.
func (n *Network) Config() Config { return n.cfg }

// Ring returns the underlying Chord ring.
func (n *Network) Ring() *chord.Ring { return n.ring }

// Peers returns all SPRITE peers sorted by address.
func (n *Network) Peers() []*Peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Peer, len(n.order))
	copy(out, n.order)
	return out
}

// Peer returns the peer at addr.
func (n *Network) Peer(addr simnet.Addr) (*Peer, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.peers[addr]
	return p, ok
}

// peer is Peer for internal callers.
func (n *Network) peer(addr simnet.Addr) (*Peer, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.peers[addr]
	return p, ok
}

// Adopt attaches SPRITE peer state to a node that joined the ring after the
// network was created, so the newcomer can serve application messages
// (publishes, query caching, polls). Adopting an already-known node returns
// its existing peer.
func (n *Network) Adopt(node *chord.Node) *Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[node.Addr()]; ok {
		return p
	}
	p := newPeer(n, node)
	n.peers[node.Addr()] = p
	n.order = append(n.order, p)
	sort.Slice(n.order, func(i, j int) bool { return n.order[i].Addr() < n.order[j].Addr() })
	node.SetAppHandler(p)
	n.attachRepair(p)
	return p
}

// Share registers doc at the owner peer and publishes its initial global
// index terms (the top-F most frequent, §5.2). Ownership is reserved under
// the lock before the (network-calling) publish, so two concurrent shares of
// the same document cannot both proceed; on publish failure the reservation
// is rolled back.
func (n *Network) Share(owner simnet.Addr, doc *corpus.Document) error {
	return n.ShareCtx(context.Background(), owner, doc)
}

// ShareCtx is Share honoring ctx: the per-term DHT publications carry the
// caller's deadline and stop at the first cancellation.
func (n *Network) ShareCtx(ctx context.Context, owner simnet.Addr, doc *corpus.Document) error {
	n.mu.Lock()
	p, ok := n.peers[owner]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchPeer, owner)
	}
	if prev, shared := n.ownerOf[doc.ID]; shared {
		n.mu.Unlock()
		return fmt.Errorf("core: document %q already shared by %q", doc.ID, prev.Addr())
	}
	n.ownerOf[doc.ID] = p
	n.docOrder = append(n.docOrder, doc.ID)
	n.mu.Unlock()

	if err := p.share(ctx, doc); err != nil {
		n.mu.Lock()
		delete(n.ownerOf, doc.ID)
		for i, id := range n.docOrder {
			if id == doc.ID {
				n.docOrder = append(n.docOrder[:i], n.docOrder[i+1:]...)
				break
			}
		}
		n.mu.Unlock()
		return err
	}
	return nil
}

// Owner returns the owner peer of a shared document.
func (n *Network) Owner(doc index.DocID) (*Peer, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.ownerOf[doc]
	return p, ok
}

// Documents returns the IDs of all shared documents in share order.
func (n *Network) Documents() []index.DocID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]index.DocID, len(n.docOrder))
	copy(out, n.docOrder)
	return out
}

// InsertQuery caches the query's keywords at the indexing peers responsible
// for them without retrieving results — the §6.2 training step ("For each
// query in the training set, the keywords are inserted into SPRITE").
func (n *Network) InsertQuery(from simnet.Addr, terms []string) error {
	return n.InsertQueryCtx(context.Background(), from, terms)
}

// InsertQueryCtx is InsertQuery honoring ctx.
func (n *Network) InsertQueryCtx(ctx context.Context, from simnet.Addr, terms []string) error {
	p, ok := n.peer(from)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchPeer, from)
	}
	return p.insertQuery(ctx, terms)
}

// Search executes a keyword query from the given peer and returns the top-k
// ranked documents (§4). Terms whose indexing peer is unreachable are
// discarded from the computation rather than failing the query (§7), with a
// nil error — this entry point predates the partial-results contract; use
// SearchCtx to observe ErrPartialResults. The query is cached in the
// contacted indexing peers' histories, feeding future learning. When a
// telemetry registry is configured the query is traced; the completed span
// tree lands in the registry's recent-trace buffer.
func (n *Network) Search(from simnet.Addr, terms []string, k int) (ir.RankedList, error) {
	rl, _, err := n.SearchTraced(from, terms, k)
	return rl, err
}

// SearchCtx is Search under a context, with the full error contract:
// deadlines and cancellation reach every lookup hop and postings fetch; a
// canceled context aborts the search with an error wrapping ctx.Err(); a
// search that lost some terms to unreachable holders returns the ranked list
// over the remaining terms plus a *PartialError (errors.Is(err,
// ErrPartialResults)). An unknown from wraps ErrNoSuchPeer.
func (n *Network) SearchCtx(ctx context.Context, from simnet.Addr, terms []string, k int) (ir.RankedList, error) {
	rl, _, err := n.SearchTracedCtx(ctx, from, terms, k)
	return rl, err
}

// SearchTraced is Search returning the query's trace (nil when no telemetry
// registry is configured). The trace's span tree has one child span per
// query term, under which each Chord hop and the postings fetch from the
// indexing peer are timed individually.
func (n *Network) SearchTraced(from simnet.Addr, terms []string, k int) (ir.RankedList, *telemetry.Trace, error) {
	rl, tr, err := n.SearchTracedCtx(context.Background(), from, terms, k)
	return rl, tr, stripPartial(err)
}

// SearchTracedCtx is SearchCtx returning the query's trace.
func (n *Network) SearchTracedCtx(ctx context.Context, from simnet.Addr, terms []string, k int) (ir.RankedList, *telemetry.Trace, error) {
	p, ok := n.peer(from)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, from)
	}
	tr := n.cfg.Telemetry.StartTrace("sprite.search")
	root := tr.Root()
	root.Annotate("from", string(from))
	rl, err := p.searchCtx(ctx, terms, k, true, root)
	tr.Finish()
	return rl, tr, err
}

// Probe is Search without the history side effect: the query is processed
// but not cached at indexing peers. The experiment harness uses it so that
// measurement runs do not leak the testing queries into the learning state.
func (n *Network) Probe(from simnet.Addr, terms []string, k int) (ir.RankedList, error) {
	rl, err := n.ProbeCtx(context.Background(), from, terms, k)
	return rl, stripPartial(err)
}

// ProbeCtx is Probe under a context, with the SearchCtx error contract.
func (n *Network) ProbeCtx(ctx context.Context, from simnet.Addr, terms []string, k int) (ir.RankedList, error) {
	p, ok := n.peer(from)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, from)
	}
	return p.searchCtx(ctx, terms, k, false, nil)
}

// LearnAll runs one learning iteration (§5.3, Algorithm 1) for every shared
// document, in share order. It returns the total number of index-term
// changes (additions plus replacements) applied across the network. The
// sweep runs over a snapshot of the document set; documents unshared
// concurrently are skipped rather than failing the sweep.
func (n *Network) LearnAll() (changes int, err error) {
	return n.LearnAllCtx(context.Background())
}

// LearnAllCtx is LearnAll honoring ctx: polls and re-publications carry the
// caller's deadline, and the sweep stops at the first cancellation.
//
// With Parallelism > 1 the per-document iterations run concurrently (each
// document's polls and publishes are independent of the others'), except when
// the HotTermDF advisory is enabled: the advisory reads each poll's IndexedDF,
// which concurrent publishes from other documents would perturb in a
// schedule-dependent way, so that configuration keeps the sequential sweep to
// preserve determinism.
func (n *Network) LearnAllCtx(ctx context.Context) (changes int, err error) {
	n.mu.RLock()
	docs := make([]index.DocID, len(n.docOrder))
	copy(docs, n.docOrder)
	owners := make([]*Peer, len(docs))
	for i, id := range docs {
		owners[i] = n.ownerOf[id]
	}
	n.mu.RUnlock()
	if !n.exec.Parallel() || n.cfg.HotTermDF > 0 {
		for i, id := range docs {
			p := owners[i]
			if p == nil {
				continue
			}
			ch, lerr := p.learnDoc(ctx, id)
			if lerr != nil {
				if errors.Is(lerr, errNotOwned) {
					continue
				}
				return changes, fmt.Errorf("core: learning %s: %w", id, lerr)
			}
			changes += ch
		}
		return changes, nil
	}
	chs, errs := fanout.Map(ctx, n.exec, "learn_doc", len(docs), func(ctx context.Context, i int) (int, error) {
		if owners[i] == nil {
			return 0, nil
		}
		return owners[i].learnDoc(ctx, docs[i])
	})
	for i, lerr := range errs {
		if lerr != nil {
			if errors.Is(lerr, errNotOwned) {
				continue
			}
			return changes, fmt.Errorf("core: learning %s: %w", docs[i], lerr)
		}
		changes += chs[i]
	}
	return changes, nil
}

// LearnDoc runs one learning iteration for a single document.
func (n *Network) LearnDoc(doc index.DocID) (int, error) {
	return n.LearnDocCtx(context.Background(), doc)
}

// LearnDocCtx is LearnDoc honoring ctx. An unshared doc wraps ErrNoSuchDoc.
func (n *Network) LearnDocCtx(ctx context.Context, doc index.DocID) (int, error) {
	n.mu.RLock()
	p, ok := n.ownerOf[doc]
	n.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchDoc, doc)
	}
	return p.learnDoc(ctx, doc)
}

// IndexedTerms returns the current global index terms of a shared document,
// sorted.
func (n *Network) IndexedTerms(doc index.DocID) ([]string, error) {
	n.mu.RLock()
	p, ok := n.ownerOf[doc]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDoc, doc)
	}
	return p.indexedTerms(doc), nil
}

// TotalPostings sums the postings stored across all indexing peers' primary
// indexes — the global index footprint SPRITE's selective indexing bounds.
func (n *Network) TotalPostings() int {
	total := 0
	for _, p := range n.Peers() {
		p.indexing.mu.Lock()
		total += p.indexing.ix.NumPostings()
		p.indexing.mu.Unlock()
	}
	return total
}

// IndexStats aggregates the block-compressed storage counters across all
// indexing peers' primary indexes: term and posting counts, the number of
// encoded blocks, and the encoded byte footprint. It is the storage-side
// companion of the cache statistics — BytesPerPosting is the compression
// headline the postings benchmark tracks.
func (n *Network) IndexStats() index.Stats {
	var total index.Stats
	for _, p := range n.Peers() {
		p.indexing.mu.Lock()
		s := p.indexing.ix.Stats()
		p.indexing.mu.Unlock()
		total.Terms += s.Terms
		total.Docs += s.Docs
		total.Postings += s.Postings
		total.Blocks += s.Blocks
		total.EncodedBytes += s.EncodedBytes
	}
	return total
}
