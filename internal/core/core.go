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
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
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
	// HistoryCap bounds each indexing peer's cached query history, in
	// issuances ("each indexing peer maintains only the most recently issued
	// queries", §3).
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
	// query) with write invalidation; a postings miss is fetched as without
	// them. The zero value disables caching, preserving the paper's exact
	// message counts.
	Cache CacheConfig
	// Resilience configures the query path's fault tolerance (retry/backoff,
	// per-attempt timeouts, replica failover). The zero value
	// disables it all, preserving the paper's exact message counts.
	Resilience ResilienceConfig
	// Parallelism bounds the query execution engine's fan-out: the number of
	// concurrent postings exchanges per query (one per indexing peer the
	// querier names itself, one per term routed on the ring), the
	// concurrent exchanges of each phase of a learning sweep. 0 derives the
	// bound from GOMAXPROCS; 1 is the legacy sequential path. Results are
	// bit-identical across settings (see internal/fanout).
	Parallelism int
	// Sketch configures per-document feature sketches and the similarity
	// query path (SearchSimilarCtx). When enabled, every published posting
	// carries the owning document's serialized sketch, costing
	// ~Dims+2 bytes per posting on the wire and in indexing-peer storage.
	// The zero value disables sketching; SearchSimilarCtx then fails with
	// ErrSketchDisabled.
	Sketch sketch.Config
	// Clock drives every time-dependent mechanism in the core: fan-out
	// worker registration, resilience backoff/timeouts, cache TTLs,
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
	learnRerouted    *telemetry.Counter
	learnReanchored  *telemetry.Counter
	fetchRerouted    *telemetry.Counter
	termsPublished   *telemetry.Counter
	termsRetired     *telemetry.Counter
	expansionRounds  *telemetry.Counter
	simSearches      *telemetry.Counter
	simCandidates    *telemetry.Counter
	retries          *telemetry.Counter
	failovers        *telemetry.Counter
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
		learnRerouted:    reg.Counter("sprite.learn.rerouted"),
		learnReanchored:  reg.Counter("sprite.learn.reanchored"),
		fetchRerouted:    reg.Counter("sprite.fetch.rerouted"),
		termsPublished:   reg.Counter("sprite.index.terms_published"),
		termsRetired:     reg.Counter("sprite.index.terms_retired"),
		expansionRounds:  reg.Counter("sprite.search.expansions"),
		simSearches:      reg.Counter("sprite.similar.searches"),
		simCandidates:    reg.Counter("sprite.similar.candidates"),
		retries:          reg.Counter("sprite.resilience.retries"),
		failovers:        reg.Counter("sprite.resilience.failovers"),
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
	// pipelines (searchCtx, insertQuery, expansion), learning sweeps and
	// replication all share its concurrency bound.
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
	return p
}

// ShareCtx registers doc at the owner peer and publishes its initial global
// index terms (the top-F most frequent, §5.2). Ownership is reserved under
// the lock before the (network-calling) publish, so two concurrent shares of
// the same document cannot both proceed; on publish failure the reservation
// is rolled back. The publications fan out one sprite.publish per indexing
// peer, not one per term, and carry ctx's deadline; a cancellation stops
// those not yet sent.
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
		n.forget(doc.ID)
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

// ownedDoc returns doc's owner and the owner's state for it: a nil state when
// doc is not shared or its owner no longer holds it.
func (n *Network) ownedDoc(doc index.DocID) (*Peer, *docState) {
	p, ok := n.Owner(doc)
	if !ok {
		return nil, nil
	}
	return p, p.state(doc)
}

// state returns p's state for doc, nil if p does not own it.
func (p *Peer) state(doc index.DocID) *docState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.owned[doc]
}

// forget drops doc from the shared documents.
func (n *Network) forget(doc index.DocID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.ownerOf, doc)
	if i := slices.Index(n.docOrder, doc); i >= 0 {
		n.docOrder = slices.Delete(n.docOrder, i, i+1)
	}
}

// sharedDocs returns the shared documents in share order and their owners.
func (n *Network) sharedDocs() ([]index.DocID, []*Peer) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	docs := slices.Clone(n.docOrder)
	owners := make([]*Peer, len(docs))
	for i, id := range docs {
		owners[i] = n.ownerOf[id]
	}
	return docs, owners
}

// Documents returns the IDs of all shared documents in share order.
func (n *Network) Documents() []index.DocID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]index.DocID, len(n.docOrder))
	copy(out, n.docOrder)
	return out
}

// InsertQueryCtx caches the query's keywords at the indexing peers
// responsible for them without retrieving results — the §6.2 training step
// ("For each query in the training set, the keywords are inserted into
// SPRITE"). Per-term insertions fan out; every reachable peer is reached even
// when some fail, and the first failure in term order is reported.
func (n *Network) InsertQueryCtx(ctx context.Context, from simnet.Addr, terms []string) error {
	p, ok := n.Peer(from)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchPeer, from)
	}
	dts := distinctTerms(terms)
	errs := fanout.ForEach(ctx, n.exec, "insert", len(dts), func(ctx context.Context, i int) error {
		_, _, err := p.send(ctx, dest{key: chordid.HashKey(dts[i])}, simnet.Message{
			Type:    msgCacheQuery,
			Payload: cacheQueryReq{Query: terms},
		}, policy{})
		return err
	})
	return fanout.FirstError(errs)
}

// SearchCtx executes a keyword query from the given peer and returns the
// top-k ranked documents (§4). The query is cached in the contacted indexing
// peers' histories, feeding future learning, and traced when a telemetry
// registry is configured. Deadlines and cancellation reach every lookup hop
// and postings fetch; a canceled context aborts the search with an error
// wrapping ctx.Err(); a search that lost some terms to unreachable holders
// returns the ranked list over the remaining terms plus a *PartialError
// (errors.Is(err, ErrPartialResults)). An unknown from wraps ErrNoSuchPeer.
func (n *Network) SearchCtx(ctx context.Context, from simnet.Addr, terms []string, k int) (ir.RankedList, error) {
	rl, _, err := n.SearchTracedCtx(ctx, from, terms, k)
	return rl, err
}

// SearchTracedCtx is SearchCtx returning the query's trace (nil when no
// telemetry registry is configured). The trace's span tree has one child span
// per exchange: a "batch" per indexing peer the searcher's own node named,
// annotated with its terms, and a "term" per term that went round on the
// ring; under each, every Chord hop and postings fetch is timed individually.
func (n *Network) SearchTracedCtx(ctx context.Context, from simnet.Addr, terms []string, k int) (ir.RankedList, *telemetry.Trace, error) {
	p, ok := n.Peer(from)
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

// ProbeCtx is SearchCtx without the history side effect: the query is
// processed but not cached at indexing peers. The experiment harness uses it
// so that measurement runs do not leak the testing queries into the learning
// state. Same error contract as SearchCtx.
func (n *Network) ProbeCtx(ctx context.Context, from simnet.Addr, terms []string, k int) (ir.RankedList, error) {
	p, ok := n.Peer(from)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, from)
	}
	return p.searchCtx(ctx, terms, k, false, nil)
}

// LearnAllCtx runs one learning iteration (§5.3, Algorithm 1) for every
// shared document and returns the total number of index-term changes
// (additions plus replacements) applied across the network. The sweep runs
// over a snapshot of the document set; documents unshared concurrently are
// skipped rather than failing it. It runs in three network-wide phases — every
// owner polls, every document folds, every owner publishes — with one poll
// and one publish per owner and indexing peer (see learn.go), so the result
// does not depend on Parallelism: every poll reads the indexing peers' state
// before any publish or withdrawal of the sweep. Re-anchors (learn.go) are
// not changes. Polls and re-publications carry ctx's deadline, and a done ctx
// stops the sweep.
func (n *Network) LearnAllCtx(ctx context.Context) (changes int, err error) {
	docs, owners := n.sharedDocs()
	return n.learn(ctx, docs, owners)
}

// LearnDocCtx runs one learning iteration for a single document: the sweep
// of LearnAllCtx over that document alone. An unshared doc wraps
// ErrNoSuchDoc.
func (n *Network) LearnDocCtx(ctx context.Context, doc index.DocID) (int, error) {
	p, ok := n.Owner(doc)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchDoc, doc)
	}
	if p.state(doc) == nil {
		return 0, fmt.Errorf("core: peer %s: %q: %w", p.Addr(), doc, errNotOwned)
	}
	return n.learn(ctx, []index.DocID{doc}, []*Peer{p})
}

// IndexedTerms returns the current global index terms of a shared document,
// sorted.
func (n *Network) IndexedTerms(doc index.DocID) ([]string, error) {
	p, st := n.ownedDoc(doc)
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDoc, doc)
	}
	if st == nil {
		return nil, nil // unshared since the lookup
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.indexedTerms(), nil
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
