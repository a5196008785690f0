// Package sprite is a learning-based text retrieval system for DHT networks,
// reproducing SPRITE (Selective PRogressive Index Tuning by Examples; Li,
// Jagadish, Tan — ICDE 2007).
//
// A Network simulates a set of peers organized in a Chord ring. Peers share
// documents: instead of publishing every term into the distributed index —
// prohibitively expensive in a P2P system — each document is indexed under a
// small, bounded set of representative terms. The set starts as the
// document's most frequent terms and is then progressively tuned: indexing
// peers remember recent queries, and each learning iteration pulls the
// queries relevant to a document back to its owner, which promotes the terms
// users actually search with and demotes terms nobody queries.
//
// Quick start:
//
//	net, _ := sprite.New(sprite.Options{Peers: 16})
//	net.Share("peer0", "doc-1", "Chord is a scalable peer-to-peer lookup service")
//	net.Share("peer1", "doc-2", "Porter stemming strips suffixes from English words")
//	results, _ := net.Search("peer2", "peer-to-peer lookup", 10)
//	net.Learn() // tune indexes from the queries seen so far
//
// Everything runs in-process on a simulated, message-metered network; see
// Stats for the traffic the protocol generated.
package sprite

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/sketch"
	"github.com/spritedht/sprite/internal/text"
	"github.com/spritedht/sprite/internal/transport"
	"github.com/spritedht/sprite/internal/vtime"
)

// Sentinel errors for programmatic handling with errors.Is. They are shared
// with the core layer, so errors surfaced by either compare equal.
var (
	// ErrNoSuchPeer marks an operation naming a peer that is not part of the
	// network.
	ErrNoSuchPeer = core.ErrNoSuchPeer
	// ErrNoSuchDoc marks an operation naming a document that is not shared.
	ErrNoSuchDoc = core.ErrNoSuchDoc
	// ErrPartialResults marks a context-first search that lost one or more
	// query terms to unreachable holders and ranked the remainder (§7's
	// degraded mode made visible). Inspect the per-term causes with
	// errors.As(err, *(*PartialError)).
	ErrPartialResults = core.ErrPartialResults
	// ErrSketchDisabled marks a similarity query against a network built
	// without Options.Sketch.Enabled.
	ErrSketchDisabled = core.ErrSketchDisabled
)

// PartialError reports which query terms a degraded search dropped and why.
// It satisfies errors.Is(err, ErrPartialResults).
type PartialError = core.PartialError

// TermFailure is one dropped term and the final error that felled it.
type TermFailure = core.TermFailure

// Options configures a Network. The zero value gives the paper's defaults:
// 16 peers, 5 initial terms per document, 5 new terms per learning
// iteration, at most 30 indexed terms, no replication.
type Options struct {
	// Peers is the number of peers in the ring (default 16).
	Peers int
	// PeerPrefix names peers "<prefix>0".."<prefix>N-1" (default "peer").
	PeerPrefix string
	// InitialTerms is the number of most-frequent terms published when a
	// document is shared (default 5).
	InitialTerms int
	// TermsPerIteration bounds how many index terms one learning iteration
	// may add or replace per document (default 5).
	TermsPerIteration int
	// MaxIndexTerms caps a document's global index terms (default 30).
	MaxIndexTerms int
	// HistoryCap bounds each indexing peer's cached query history (default
	// 4096 queries).
	HistoryCap int
	// Replicas is the number of successor peers each index entry is
	// replicated to, for fault tolerance (default 0 = off).
	Replicas int
	// Seed makes all simulation randomness reproducible (default 1).
	Seed int64
	// KeepStopWords disables stop-word removal in the text pipeline.
	KeepStopWords bool
	// NoStemming disables Porter stemming in the text pipeline.
	NoStemming bool
	// TCP runs the peers over real loopback TCP sockets instead of the
	// in-process simulator. Peer names become their "host:port" addresses.
	// Traffic statistics, FailPeer/RecoverPeer, and per-message accounting
	// are simulator capabilities and are inert in TCP mode; everything else
	// — sharing, searching, learning, expansion, replication, refresh —
	// behaves identically.
	TCP bool
	// HotTermDF enables the hot-term advisory: index terms whose indexed
	// document frequency reaches this value are retired by their owners at
	// the next learning iteration (0 = off).
	HotTermDF int
	// Telemetry, if non-nil, receives metrics and query traces from every
	// layer: transport call/byte/latency accounting, Chord lookup hop
	// histograms and maintenance counters, and SPRITE indexing/learning/query
	// events. Create one with NewTelemetry; read it at any time with
	// WriteReport, WriteJSON, Handler, or Counter. Nil (the default) leaves
	// instrumentation off at near-zero cost.
	Telemetry *Telemetry
	// Cache configures the query-path caches (postings by term with
	// singleflight coalescing, whole results by query with a short TTL).
	// The zero value disables caching, preserving the paper's exact message
	// accounting. Every index mutation invalidates what it could have made
	// stale — the written term's postings, or everything when lists move
	// between peers — so stale postings are never served; see the README's
	// Caching section for the scopes and for the staleness/TTL trade-off
	// under transport-level failures.
	Cache CacheOptions
	// Resilience configures the query path's fault tolerance: retry with
	// backoff, per-attempt timeouts, hedged fetches, and failover to the §7
	// successor replicas. The zero value disables it all — one attempt per
	// fetch, exactly the paper's message accounting. Validated in New.
	Resilience ResilienceOptions
	// Parallelism bounds the query execution engine's fan-out: how many
	// per-term pipelines (DHT lookup → postings fetch → history recording →
	// scoring) run concurrently per query, and how many documents the
	// learning/refresh sweeps process at once. 0 (the default) derives the
	// bound from GOMAXPROCS; 1 forces the legacy sequential path. Rankings,
	// query histories, and message accounting are bit-identical across
	// settings — only wall-clock latency changes.
	Parallelism int
	// Sketch enables vector-similarity retrieval: every shared document
	// carries a compact random-projection sketch of its term vector inside
	// its postings, and SearchSimilar finds a document's nearest neighbors
	// by routing through its learned index terms and re-ranking candidates
	// by sketch cosine. Costs ~Dims+2 bytes per stored posting when on.
	Sketch SketchOptions
	// VirtualTime runs the deployment on a deterministic discrete-event
	// clock (internal/vtime) instead of the wall clock: simulated link
	// latency, retry backoff, hedging triggers, per-attempt timeouts, and
	// cache TTLs all become scheduler events, so a 100k-peer,
	// million-query experiment "sleeps" through hours of simulated time in
	// seconds of wall time while producing bit-identical timelines for a
	// given seed. Requires the in-process simulator (incompatible with
	// TCP — real sockets cannot wait on virtual time; New returns an
	// error for the combination). Read the simulated elapsed time with
	// VirtualClock().
	VirtualTime bool
}

// ResilienceOptions tunes the fault-tolerant read path; see Options.Resilience
// and the README's "Fault tolerance" section.
type ResilienceOptions struct {
	// MaxRetries re-attempts a failed postings fetch against the same holder
	// (0 = single attempt).
	MaxRetries int
	// BaseBackoff caps the first retry's full-jitter sleep; each further
	// retry doubles the cap.
	BaseBackoff time.Duration
	// PerCallTimeout bounds each individual fetch attempt (0 = none).
	PerCallTimeout time.Duration
	// Hedge, when positive, duplicates a fetch that has not settled after
	// this long; the first usable answer wins.
	Hedge time.Duration
	// FailoverToReplicas retries a term whose holder stayed unreachable
	// against the successor peers holding its replicas. Requires
	// Replicas > 0 to find anything.
	FailoverToReplicas bool
}

// CacheOptions tunes the query-path caches; see Options.Cache.
type CacheOptions struct {
	// Enabled turns the caching layer on.
	Enabled bool
	// PostingsEntries caps the postings cache (default 4096 terms).
	PostingsEntries int
	// PostingsTTL bounds postings age; 0 keeps a term's entry until the next
	// write to that term or the next full flush (join, leave, repair,
	// restore, InvalidateCaches).
	PostingsTTL time.Duration
	// NoPostings disables the postings cache individually.
	NoPostings bool
	// ResultEntries caps the result cache (default 1024 queries).
	ResultEntries int
	// ResultTTL bounds result age (default 2s). Every index mutation also
	// drops all cached results.
	ResultTTL time.Duration
	// NoResults disables the result cache individually.
	NoResults bool
}

// SketchOptions tunes vector-similarity retrieval; see Options.Sketch.
// Networks comparing or exchanging sketches must agree on all three of
// Dims, Seed, and the projection scheme — a sketch is only meaningful
// against sketches from the same configuration.
type SketchOptions struct {
	// Enabled turns sketching on: documents are sketched at share time and
	// SearchSimilar becomes available.
	Enabled bool
	// Dims is the sketch dimensionality (default 128). More dimensions
	// tighten the cosine estimate at one byte per dimension per posting.
	Dims int
	// RouteTerms caps how many of the query document's learned index terms
	// a similarity query routes through (default 6).
	RouteTerms int
	// Seed keys the projection directions (default 1). Distinct from
	// Options.Seed so stored sketches can stay comparable across
	// deployments that differ in simulation seed.
	Seed int64
	// Refine, when positive, re-scores the top Refine sketch candidates by
	// exact weighted cosine, fetching each one's term vector from its owner
	// (one extra message per candidate). Zero ranks by sketch cosine alone.
	Refine int
}

// CacheStats reports one cache's counters; see Network.CacheStats.
type CacheStats struct {
	Hits        int64 // lookups served from the cache
	Misses      int64 // lookups that went to the network
	Coalesced   int64 // lookups that piggybacked on an in-flight fetch
	Evictions   int64 // entries dropped for capacity
	Expirations int64 // entries dropped for age
	Entries     int   // current occupancy
	HitRate     float64
}

// IndexStats reports the block-compressed postings storage footprint,
// aggregated over every peer's primary index; see Network.IndexStats.
type IndexStats struct {
	Terms        int     // distinct terms with at least one posting
	Postings     int     // stored postings network-wide
	Blocks       int     // encoded blocks backing those postings
	EncodedBytes int     // total encoded size of all blocks
	BytesPerPost float64 // EncodedBytes / Postings (0 when empty)
}

// Result is one ranked search hit.
type Result struct {
	DocID string
	Score float64
	Owner string // the peer that shared the document
}

// Stats summarizes the simulated network traffic.
type Stats struct {
	Messages int64            // RPCs sent between distinct peers
	Bytes    int64            // simulated payload bytes
	ByType   map[string]int64 // message count per protocol message type
	Postings int              // index entries currently stored network-wide
	Peers    int              // alive peers
}

// Network is a running SPRITE deployment.
type Network struct {
	opts      Options
	analyzer  text.Analyzer
	transport simnet.Transport
	sim       *simnet.Network      // nil in TCP mode
	tcp       *transport.Transport // nil unless TCP mode
	vclk      *vtime.Sim           // nil unless Options.VirtualTime
	ring      *chord.Ring
	core      *core.Network
	peers     []string
}

// VirtualClock returns the deployment's deterministic event clock, or nil
// when the network runs on the wall clock (Options.VirtualTime unset). Use
// it to read simulated elapsed time (Elapsed) or to register experiment
// goroutines (Run/Go) so their sleeps participate in virtual scheduling.
func (n *Network) VirtualClock() *vtime.Sim { return n.vclk }

// New builds a network of opts.Peers peers, wires the Chord overlay, and
// attaches a SPRITE peer to every node.
func New(opts Options) (*Network, error) {
	if opts.Peers == 0 {
		opts.Peers = 16
	}
	if opts.Peers < 1 {
		return nil, fmt.Errorf("sprite: Peers = %d, need >= 1", opts.Peers)
	}
	if opts.PeerPrefix == "" {
		opts.PeerPrefix = "peer"
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	reg := opts.Telemetry.registry()
	if opts.VirtualTime && opts.TCP {
		return nil, errors.New("sprite: VirtualTime requires the in-process simulator (incompatible with TCP)")
	}
	var (
		tport simnet.Transport
		sim   *simnet.Network
		tcp   *transport.Transport
		vclk  *vtime.Sim
	)
	if opts.VirtualTime {
		vclk = vtime.NewSim()
	}
	if opts.TCP {
		tcp = transport.New(transport.WithTelemetry(reg))
		tport = tcp
	} else {
		snetOpts := []simnet.Option{simnet.WithTelemetry(reg)}
		if vclk != nil {
			snetOpts = append(snetOpts, simnet.WithClock(vclk))
		}
		sim = simnet.New(opts.Seed, snetOpts...)
		tport = sim
	}
	ring := chord.NewRing(tport, chord.Config{Telemetry: reg})
	if opts.TCP {
		addrs, err := transport.FreeAddrs(opts.Peers)
		if err != nil {
			return nil, fmt.Errorf("sprite: %w", err)
		}
		for _, a := range addrs {
			if _, err := ring.AddNode(string(a)); err != nil {
				return nil, fmt.Errorf("sprite: %w", err)
			}
		}
		if err := tcp.LastError(); err != nil {
			return nil, fmt.Errorf("sprite: %w", err)
		}
	} else if _, err := ring.AddNodes(opts.PeerPrefix, opts.Peers); err != nil {
		return nil, fmt.Errorf("sprite: %w", err)
	}
	ring.Build()
	var coreClock vtime.Clock
	if vclk != nil {
		coreClock = vclk
	}
	c, err := core.NewNetwork(ring, core.Config{
		Clock:             coreClock,
		InitialTerms:      opts.InitialTerms,
		TermsPerIteration: opts.TermsPerIteration,
		MaxIndexTerms:     opts.MaxIndexTerms,
		HistoryCap:        opts.HistoryCap,
		ReplicationFactor: opts.Replicas,
		HotTermDF:         opts.HotTermDF,
		Parallelism:       opts.Parallelism,
		Telemetry:         reg,
		Cache: core.CacheConfig{
			Enabled:         opts.Cache.Enabled,
			PostingsEntries: opts.Cache.PostingsEntries,
			PostingsTTL:     opts.Cache.PostingsTTL,
			DisablePostings: opts.Cache.NoPostings,
			ResultEntries:   opts.Cache.ResultEntries,
			ResultTTL:       opts.Cache.ResultTTL,
			DisableResults:  opts.Cache.NoResults,
		},
		Sketch: sketch.Config{
			Enabled:    opts.Sketch.Enabled,
			Dims:       opts.Sketch.Dims,
			RouteTerms: opts.Sketch.RouteTerms,
			Seed:       uint64(opts.Sketch.Seed),
			Refine:     opts.Sketch.Refine,
		},
		Resilience: core.ResilienceConfig{
			MaxRetries:         opts.Resilience.MaxRetries,
			BaseBackoff:        opts.Resilience.BaseBackoff,
			PerCallTimeout:     opts.Resilience.PerCallTimeout,
			HedgeAfter:         opts.Resilience.Hedge,
			FailoverToReplicas: opts.Resilience.FailoverToReplicas,
			JitterSeed:         opts.Seed,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("sprite: %w", err)
	}
	n := &Network{
		opts:      opts,
		analyzer:  text.Analyzer{KeepStopWords: opts.KeepStopWords, NoStemming: opts.NoStemming},
		transport: tport,
		sim:       sim,
		tcp:       tcp,
		vclk:      vclk,
		ring:      ring,
		core:      c,
	}
	for _, p := range c.Peers() {
		n.peers = append(n.peers, string(p.Addr()))
	}
	return n, nil
}

// Peers returns the peer names, sorted.
func (n *Network) Peers() []string {
	out := make([]string, len(n.peers))
	copy(out, n.peers)
	return out
}

// Share publishes a document from the named owner peer. The raw text runs
// through the standard pipeline (tokenize, stop words, Porter stemming) and
// the document's most frequent terms become its initial global index terms.
// An unknown peer wraps ErrNoSuchPeer.
func (n *Network) Share(peer, docID, rawText string) error {
	return n.ShareCtx(context.Background(), peer, docID, rawText)
}

// ShareCtx is Share honoring ctx: the per-term DHT publications carry the
// caller's deadline and stop at the first cancellation.
func (n *Network) ShareCtx(ctx context.Context, peer, docID, rawText string) error {
	doc := corpus.NewDocumentFromText(n.analyzer, index.DocID(docID), rawText)
	if doc.Length == 0 {
		return fmt.Errorf("sprite: document %q has no indexable terms", docID)
	}
	return n.core.ShareCtx(ctx, simnet.Addr(peer), doc)
}

// ShareTerms publishes a pre-analyzed document given its term frequencies.
// Use this when the caller has already tokenized/stemmed the content.
func (n *Network) ShareTerms(peer, docID string, termFreq map[string]int) error {
	if len(termFreq) == 0 {
		return fmt.Errorf("sprite: document %q has no terms", docID)
	}
	tf := make(map[string]int, len(termFreq))
	for t, f := range termFreq {
		tf[t] = f
	}
	return n.core.Share(simnet.Addr(peer), corpus.NewDocument(index.DocID(docID), tf))
}

// Search runs a keyword query from the named peer and returns the top k
// results. The query text runs through the same pipeline as documents, and
// its keywords are cached at the contacted indexing peers, feeding future
// learning. Terms whose holders are unreachable are silently dropped from
// the ranking (use SearchCtx to observe them as ErrPartialResults).
func (n *Network) Search(peer, query string, k int) ([]Result, error) {
	res, err := n.SearchCtx(context.Background(), peer, query, k)
	return res, stripPartial(err)
}

// SearchCtx is Search under a context, with the full error contract:
// deadlines and cancellation reach every DHT hop and postings fetch, and a
// canceled context aborts the search with an error wrapping ctx.Err(). A
// search that lost some terms to unreachable holders returns the ranking
// over the remaining terms together with an error wrapping ErrPartialResults
// (inspect the dropped terms via errors.As with *PartialError). An unknown
// peer wraps ErrNoSuchPeer.
func (n *Network) SearchCtx(ctx context.Context, peer, query string, k int) ([]Result, error) {
	terms := n.analyzer.Terms(query)
	if len(terms) == 0 {
		return nil, fmt.Errorf("sprite: query %q has no searchable terms", query)
	}
	return n.searchTermsCtx(ctx, peer, terms, k)
}

// SearchTerms runs a query given pre-analyzed terms, with Search's
// drop-silently degraded mode.
func (n *Network) SearchTerms(peer string, terms []string, k int) ([]Result, error) {
	res, err := n.SearchTermsCtx(context.Background(), peer, terms, k)
	return res, stripPartial(err)
}

// SearchTermsCtx is SearchTerms under a context, with the SearchCtx error
// contract.
func (n *Network) SearchTermsCtx(ctx context.Context, peer string, terms []string, k int) ([]Result, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("sprite: empty term list")
	}
	return n.searchTermsCtx(ctx, peer, terms, k)
}

func (n *Network) searchTermsCtx(ctx context.Context, peer string, terms []string, k int) ([]Result, error) {
	rl, err := n.core.SearchCtx(ctx, simnet.Addr(peer), terms, k)
	if err != nil && !errors.Is(err, ErrPartialResults) {
		return nil, err
	}
	out := make([]Result, 0, len(rl))
	for _, h := range rl {
		owner := ""
		if p, ok := n.core.Owner(h.Doc); ok {
			owner = string(p.Addr())
		}
		out = append(out, Result{DocID: string(h.Doc), Score: h.Score, Owner: owner})
	}
	return out, err
}

// SearchSimilar finds the k shared documents most similar to the named
// document, ranked by the cosine similarity of their sketches (the query
// document itself is excluded). Candidates are gathered by routing through
// the document's learned index terms — the same message bill as a keyword
// query over those terms — so it scales with the overlay, not the corpus.
// Requires Options.Sketch.Enabled (ErrSketchDisabled otherwise); an unshared
// document wraps ErrNoSuchDoc. Terms whose holders are unreachable are
// silently dropped (use SearchSimilarCtx to observe them).
func (n *Network) SearchSimilar(peer, docID string, k int) ([]Result, error) {
	res, err := n.SearchSimilarCtx(context.Background(), peer, docID, k)
	return res, stripPartial(err)
}

// SearchSimilarCtx is SearchSimilar under a context, with the SearchCtx
// error contract: cancellation aborts the query, and routing terms lost to
// unreachable holders surface as ErrPartialResults alongside the ranking
// over the remaining candidates.
func (n *Network) SearchSimilarCtx(ctx context.Context, peer, docID string, k int) ([]Result, error) {
	rl, err := n.core.SearchSimilarCtx(ctx, simnet.Addr(peer), index.DocID(docID), k)
	if err != nil && !errors.Is(err, ErrPartialResults) {
		return nil, err
	}
	out := make([]Result, 0, len(rl))
	for _, h := range rl {
		owner := ""
		if p, ok := n.core.Owner(h.Doc); ok {
			owner = string(p.Addr())
		}
		out = append(out, Result{DocID: string(h.Doc), Score: h.Score, Owner: owner})
	}
	return out, err
}

// stripPartial drops a partial-results error, restoring the pre-context
// entry points' contract (degraded results, nil error).
func stripPartial(err error) error {
	if errors.Is(err, ErrPartialResults) {
		return nil
	}
	return err
}

// Learn runs one learning iteration over every shared document: owners poll
// the indexing peers for the queries seen since the last iteration and
// re-tune their documents' index terms. It returns the number of index-term
// changes applied.
func (n *Network) Learn() (int, error) {
	return n.LearnCtx(context.Background())
}

// LearnCtx is Learn honoring ctx: polls and re-publications carry the
// caller's deadline and the sweep stops at the first cancellation.
func (n *Network) LearnCtx(ctx context.Context) (int, error) {
	return n.core.LearnAllCtx(ctx)
}

// IndexedTerms reports the current global index terms of a document.
func (n *Network) IndexedTerms(docID string) ([]string, error) {
	return n.core.IndexedTerms(index.DocID(docID))
}

// FailPeer simulates a crash of the named peer: it stops answering until
// RecoverPeer. Lookups route around it; with Replicas > 0 its index entries
// remain servable from successor replicas. No-op in TCP mode (real peers
// fail by going away, not by decree).
//
// The query caches are invalidated: a failure happens below the core's
// message handlers, so without the explicit drop a warm cache would keep
// serving the dead peer's postings past the configured TTL.
func (n *Network) FailPeer(peer string) {
	if fi, ok := n.transport.(simnet.FaultInjector); ok {
		fi.Fail(simnet.Addr(peer))
		n.core.InvalidateCaches()
	}
}

// RecoverPeer brings a failed peer back (invalidating the query caches, like
// FailPeer). No-op in TCP mode.
func (n *Network) RecoverPeer(peer string) {
	if fi, ok := n.transport.(simnet.FaultInjector); ok {
		fi.Recover(simnet.Addr(peer))
		n.core.InvalidateCaches()
	}
}

// Stabilize runs up to rounds rounds of Chord stabilization, repairing the
// overlay after failures or recoveries. It returns the rounds executed.
func (n *Network) Stabilize(rounds int) int { return n.ring.Stabilize(rounds) }

// Stats snapshots the simulated network counters and index footprint. In
// TCP mode only the index footprint and peer count are populated (per-call
// accounting is a simulator capability).
func (n *Network) Stats() Stats {
	out := Stats{
		Postings: n.core.TotalPostings(),
		Peers:    len(n.peers),
		ByType:   map[string]int64{},
	}
	if n.sim != nil {
		s := n.sim.Stats()
		out.Messages = s.Calls
		out.Bytes = s.Bytes
		out.ByType = s.CallsByType
		out.Peers = s.PeersAlive
	}
	return out
}

// IndexStats reports the block-compressed postings storage counters,
// aggregated across all peers' primary indexes — the storage-side companion
// of CacheStats.
func (n *Network) IndexStats() IndexStats {
	s := n.core.IndexStats()
	return IndexStats{
		Terms:        s.Terms,
		Postings:     s.Postings,
		Blocks:       s.Blocks,
		EncodedBytes: s.EncodedBytes,
		BytesPerPost: s.BytesPerPosting(),
	}
}

// CacheStats reports the postings and result cache counters. Both are zero
// when Options.Cache is disabled.
func (n *Network) CacheStats() (postings, results CacheStats) {
	return fromCacheStats(n.core.PostingsCacheStats()), fromCacheStats(n.core.ResultCacheStats())
}

func fromCacheStats(st cache.Stats) CacheStats {
	return CacheStats{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Coalesced:   st.Coalesced,
		Evictions:   st.Evictions,
		Expirations: st.Expirations,
		Entries:     st.Entries,
		HitRate:     st.HitRate(),
	}
}

// InvalidateCaches drops every cached postings list and query result. The
// core invalidates automatically on index mutations — the written term's
// postings for a share, learn or unshare; everything when a join, leave or
// repair moves lists between peers — so call this only when the network
// changed out of band (e.g. transport-level churn in TCP mode): a failure
// names no term, and changes which peer answers for many. FailPeer and
// RecoverPeer call it themselves.
func (n *Network) InvalidateCaches() { n.core.InvalidateCaches() }

// ResetStats zeroes the traffic counters (the index footprint is
// unaffected). No-op in TCP mode.
func (n *Network) ResetStats() {
	if n.sim != nil {
		n.sim.ResetStats()
	}
}

// Close releases transport resources (TCP listeners, pooled connections).
// Simulated networks hold no external resources, so Close is then a no-op.
// The network is unusable afterwards.
func (n *Network) Close() {
	if n.tcp != nil {
		n.tcp.Close()
	}
}

// Unshare withdraws a shared document: its index entries are removed from
// the network and the owner forgets it.
func (n *Network) Unshare(docID string) error {
	return n.core.Unshare(index.DocID(docID))
}

// Refresh re-publishes every shared document's index terms through fresh
// DHT lookups. After churn — failures, recoveries, new peers — the peer
// responsible for a term may have changed; Refresh migrates entries to the
// current owners, restoring findability. It returns the number of entries
// that moved.
//
// Refresh is the owner-driven O(index) sweep; ring membership changes no
// longer need it — JoinPeer and LeavePeer hand the affected arc's entries
// off peer-to-peer, and Repair reconciles any remainder.
func (n *Network) Refresh() (int, error) {
	return n.core.RefreshAll()
}

// JoinPeer adds a fresh peer to the running network: the node joins the
// Chord ring through an existing member, stabilization splices it in, and
// the join-time handoff migrates the index entries of its new arc from its
// successor — peer-driven, no owner refresh sweep involved. The name must
// not collide with an existing peer; in TCP mode it must be a bindable
// "host:port" address.
func (n *Network) JoinPeer(peer string) error {
	if _, ok := n.core.Peer(simnet.Addr(peer)); ok {
		return fmt.Errorf("sprite: peer %q already exists", peer)
	}
	var boot *chord.Node
	for _, nd := range n.ring.Nodes() {
		if n.sim == nil || n.sim.Alive(nd.Addr()) {
			boot = nd
			break
		}
	}
	if boot == nil {
		return fmt.Errorf("sprite: no alive peer to bootstrap %q", peer)
	}
	node, err := n.ring.AddNode(peer)
	if err != nil {
		return fmt.Errorf("sprite: %w", err)
	}
	n.core.Adopt(node)
	if err := node.Join(boot); err != nil {
		return fmt.Errorf("sprite: %w", err)
	}
	n.ring.StabilizeLists(64)
	n.ring.RepairFingers()
	n.core.InvalidateCaches()
	n.refreshPeerList()
	return nil
}

// LeavePeer departs the named peer gracefully: its shared documents are
// withdrawn (documents leave with their owner), its primary index entries
// hand off to its successor with the owners' records rewritten to match,
// and replica holders are told to retire its copies. It returns the number
// of index entries handed off. A failed peer cannot leave gracefully —
// recover it first or let repair reclaim its arc.
func (n *Network) LeavePeer(peer string) (handoffs int, err error) {
	rep, err := n.core.Leave(simnet.Addr(peer))
	if err != nil {
		return 0, fmt.Errorf("sprite: %w", err)
	}
	n.ring.StabilizeLists(64)
	n.ring.RepairFingers()
	n.core.InvalidateCaches()
	n.refreshPeerList()
	return rep.Handoffs, nil
}

// RepairStats reports one peer-driven maintenance sweep; see Repair.
type RepairStats struct {
	Moved      int // primary entries relocated to their arc owner
	Rounds     int // shed rounds until no entry moved
	Reconciles int // anti-entropy digest exchanges performed
	Divergent  int // terms whose replica lists were repaired
}

// Repair runs one peer-driven maintenance sweep: every peer sheds primary
// entries outside its arc back toward their owner, and (with Replicas > 0)
// reconciles its replica holders through compact Merkle digests, pushing
// only the divergent term lists. This is the churn-repair path the paper's
// owner refresh sweep used to cover, at O(entries in changed arcs) instead
// of O(index).
func (n *Network) Repair() RepairStats {
	st := n.core.Repair()
	n.core.FlushStaleAll()
	return RepairStats{Moved: st.Moved, Rounds: st.Rounds, Reconciles: st.Reconciles, Divergent: st.Divergent}
}

func (n *Network) refreshPeerList() {
	n.peers = n.peers[:0]
	for _, p := range n.core.Peers() {
		n.peers = append(n.peers, string(p.Addr()))
	}
}

// Expansion tunes SearchExpanded.
type Expansion struct {
	// FeedbackDocs is how many top first-phase results feed the analysis
	// (default 5).
	FeedbackDocs int
	// Terms is how many co-occurring terms are appended (default 3).
	Terms int
}

// SearchExpanded runs a query with local-context-analysis expansion: a
// first-phase search, co-occurrence analysis over the top results' term
// vectors (fetched from their owner peers), then a second search with the
// enriched query. It returns the results and the expansion terms applied.
func (n *Network) SearchExpanded(peer, query string, k int, opts Expansion) ([]Result, []string, error) {
	terms := n.analyzer.Terms(query)
	if len(terms) == 0 {
		return nil, nil, fmt.Errorf("sprite: query %q has no searchable terms", query)
	}
	rl, expansion, err := n.core.SearchExpanded(simnet.Addr(peer), terms, k, core.ExpandOptions{
		FeedbackDocs:   opts.FeedbackDocs,
		ExpansionTerms: opts.Terms,
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]Result, 0, len(rl))
	for _, h := range rl {
		owner := ""
		if p, ok := n.core.Owner(h.Doc); ok {
			owner = string(p.Addr())
		}
		out = append(out, Result{DocID: string(h.Doc), Score: h.Score, Owner: owner})
	}
	return out, expansion, nil
}

// Save serializes the network's complete SPRITE state — every peer's index,
// replicas, query history, and every owner's documents and learning
// statistics — so a long-running session can be checkpointed and resumed
// with Load. The overlay itself is not saved; it is reconstructed from the
// peer names when the network is rebuilt.
func (n *Network) Save(w io.Writer) error {
	return n.core.Snapshot(w)
}

// Load restores state saved by Save into this network. The network must
// have been created with the same peer configuration (same Peers count,
// prefix, and simulated transport); any state accumulated before Load is
// discarded.
func (n *Network) Load(r io.Reader) error {
	return n.core.Restore(r)
}
