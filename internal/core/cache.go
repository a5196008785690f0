package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// This file wires the internal/cache substrate into the query path at two
// levels:
//
//   - A postings cache keyed by term. Fetching a term's inverted list costs a
//     Chord lookup (O(log N) hops) plus the postings transfer — the dominant
//     per-query expense. Under SPRITE's own premise of a skewed, repetitive
//     query stream (§5), most fetches repeat recent ones; the cache serves
//     them locally, with singleflight coalescing so N concurrent cold
//     searches for a term issue one remote fetch.
//   - A result cache keyed by (canonical query terms, k) with a short TTL,
//     for verbatim repeats of whole queries.
//
// Consistency: a cached entry can never outlive the index state it was read
// from, and an invalidation is as narrow as the event behind it (entries die
// lazily; see cache.Invalidate and cache.InvalidateKey).
//
//   - A write to one term's list invalidates that term's postings entry and
//     no other: publish, unpublish, replica add/drop, handoff revert — every
//     such message names its term — and hence share, unshare, learning
//     re-publication and refresh, which are made of them. Unshare and the
//     stale-withdrawal retries also invalidate the terms whose holder they
//     could not reach, since no handler ran there. Scoring a term reads
//     nothing but that term's list (its length is IndexedDF; SurrogateN is a
//     constant), so nothing else can have gone stale.
//   - An event that moves lists between peers flushes everything: handoff
//     installs, anti-entropy pushes and sheds, graceful leave, snapshot
//     restore, and InvalidateCaches (peer failure or recovery injected below
//     the core). There the cached indexing-peer address changes, not just
//     the list, for terms the event does not enumerate.
//   - Either kind flushes the whole result cache: a result depends on every
//     term of its query.
//
// Learning stays unaffected by caching: a search served from cache still
// records its query at the indexing peers via msgCacheQuery, so query
// histories — and hence QF/qScore statistics — match an uncached run exactly.
//
// Staleness window: a peer failure is invisible to the core (it happens at
// the transport), so cached postings owned by a just-failed peer are served
// until the next write to their term, the next flush, or TTL expiry —
// strictly better availability than the uncached path, which would skip the
// term (§7 degraded mode), at the price of a staleness window that only a TTL
// or an InvalidateCaches call from the host bounds.

// resultEntries caps the result cache.
const resultEntries = 1024

// CacheConfig tunes the query-path caches. The zero value disables caching
// entirely, preserving the paper's exact message accounting.
type CacheConfig struct {
	// Enabled turns the caching layer on.
	Enabled bool
	// PostingsEntries caps the postings cache (default 4096 terms).
	PostingsEntries int
	// PostingsTTL bounds postings age. The default 0 keeps a term's entry
	// until the next write to that term or the next flush (membership change,
	// restore, InvalidateCaches), which in the simulator is exact; deployments
	// with out-of-band failures should set a TTL.
	PostingsTTL time.Duration
	// ResultTTL bounds result age (default 2s); the result cache holds up to
	// resultEntries queries. Results are also dropped, all of them, on every
	// index mutation — unlike postings, which a write drops for its own term
	// only.
	ResultTTL time.Duration
	// DisableResults switches the result cache off individually.
	DisableResults bool
}

// fillDefaults resolves the zero fields of an enabled configuration.
func (c CacheConfig) fillDefaults() CacheConfig {
	if !c.Enabled {
		return c
	}
	if c.PostingsEntries == 0 {
		c.PostingsEntries = 4096
	}
	if c.ResultTTL == 0 {
		c.ResultTTL = 2 * time.Second
	}
	return c
}

// validate rejects unusable cache configurations.
func (c CacheConfig) validate() error {
	switch {
	case c.PostingsEntries < 0:
		return fmt.Errorf("core: Cache.PostingsEntries = %d, need >= 0", c.PostingsEntries)
	case c.PostingsTTL < 0 || c.ResultTTL < 0:
		return fmt.Errorf("core: cache TTLs must be >= 0")
	}
	return nil
}

// postingsEntry is one cached postings fetch: the indexing peer's response
// plus its address, retained so cache hits can still route msgCacheQuery
// history recordings to it.
type postingsEntry struct {
	resp postingsList
	peer simnet.Addr
}

// resultEntry is one cached ranked list plus the indexing peers contacted to
// compute it, so recorded repeats keep feeding those peers' query histories.
type resultEntry struct {
	rl    ir.RankedList
	peers map[string]simnet.Addr // term → indexing peer
}

// netCaches bundles the two query-path caches; both pointers are nil when
// caching is disabled (a nil cache is inert).
type netCaches struct {
	postings *cache.Cache[postingsEntry]
	results  *cache.Cache[resultEntry]
}

func newNetCaches(cfg CacheConfig, reg *telemetry.Registry, clk vtime.Clock) netCaches {
	if !cfg.Enabled {
		return netCaches{}
	}
	var nc netCaches
	if cfg.PostingsEntries > 0 {
		nc.postings = cache.New[postingsEntry](cache.Config{
			MaxEntries: cfg.PostingsEntries,
			TTL:        cfg.PostingsTTL,
			Telemetry:  reg,
			Name:       "cache.postings",
			Clock:      clk,
		})
	}
	if !cfg.DisableResults {
		nc.results = cache.New[resultEntry](cache.Config{
			MaxEntries: resultEntries,
			TTL:        cfg.ResultTTL,
			Telemetry:  reg,
			Name:       "cache.results",
			Clock:      clk,
		})
	}
	return nc
}

// invalidate drops every cached posting and result (generation bump, O(1)).
func (nc netCaches) invalidate() {
	nc.postings.Invalidate()
	nc.results.Invalidate()
}

// invalidateTerm is the narrow form for a write to one term's list: that
// term's cached postings die, every other term's stay. Results are still
// flushed wholesale — a result hit saves no messages (it replays one
// msgCacheQuery per term), and which permutation of a query a result entry
// is served to is pinned by the benchmark's rank hash (see ROADMAP).
func (nc netCaches) invalidateTerm(term string) {
	nc.postings.InvalidateKey(term)
	nc.results.Invalidate()
}

// InvalidateCaches drops all cached postings and query results. The core
// invalidates by itself on every index mutation — one term for a write, all
// of them when entries move between peers — so hosts call this only when
// they know the network changed under the core's feet (peer failure or
// recovery injected at the transport level, overlay membership changes, …):
// such an event names no term, and it changes which peer answers for many.
func (n *Network) InvalidateCaches() {
	n.caches.invalidate()
}

// PostingsCacheStats returns the postings cache counters (zero when the
// cache is disabled).
func (n *Network) PostingsCacheStats() cache.Stats { return n.caches.postings.Stats() }

// ResultCacheStats returns the result cache counters (zero when disabled).
func (n *Network) ResultCacheStats() cache.Stats { return n.caches.results.Stats() }

// resultKey is the result-cache key: the canonical (sorted, duplicates
// retained) query term list plus the answer depth. Term order never affects
// scoring; term multiplicity does, so it is preserved.
func resultKey(terms []string, k int) string {
	return canonicalQuery(terms) + "\x00" + strconv.Itoa(k)
}

// resultBytes approximates a cached result's footprint for the byte gauge.
func resultBytes(e resultEntry) int {
	n := 0
	for _, h := range e.rl {
		n += len(h.Doc) + 16
	}
	for t, a := range e.peers {
		n += len(t) + len(a)
	}
	return n
}

// postingsBytes approximates a cached postings entry's footprint. The
// postings travel and are retained in their encoded block form, so the
// encoded size is the honest byte cost of the entry.
func postingsBytes(e postingsEntry) int {
	return e.resp.Postings.Size() + len(e.peer) + 16
}

// fetchPostingsCached resolves a term's postings through the postings cache.
// Misses run the resilient DHT path — Chord lookup, then msgGetPostings with
// Record off, under the network's retry/failover policy — with
// singleflight, so concurrent misses on the same term issue exactly one
// remote fetch. The fetch itself never records the query (cached hits would
// then under-count history); recording is the caller's job via
// recordQueryAt.
func (p *Peer) fetchPostingsCached(ctx context.Context, term string, tsp *telemetry.Span) (postingsEntry, cache.Outcome, error) {
	return p.net.caches.postings.GetOrFill(term, func() (postingsEntry, int, error) {
		resp, peer, err := p.fetchTermPostings(ctx, term, nil, false, tsp)
		if err != nil {
			return postingsEntry{}, 0, err
		}
		ent := postingsEntry{resp: resp, peer: peer}
		return ent, postingsBytes(ent), nil
	})
}

// recordQueryAt inserts the query into the indexing peer's history — the
// side effect an uncached recorded search gets for free from its
// msgGetPostings — so caching never starves learning. It reports the
// recording failure, so the result-cache-hit replay can count dropped history
// entries (a silent drop skews learning); the postings-cache path records
// best-effort, skipping an unreachable peer exactly as the uncached path
// would. An unknown peer ("" — the term matched nothing when the entry was
// cached) records nothing and is not an error.
func (p *Peer) recordQueryAt(ctx context.Context, peer simnet.Addr, query []string) error {
	if peer == "" {
		return nil
	}
	_, err := p.net.ring.Net().CallCtx(ctx, p.Addr(), peer, simnet.Message{
		Type:    msgCacheQuery,
		Payload: cacheQueryReq{Query: query},
		Size:    sizeTerms(query),
	})
	return err
}
