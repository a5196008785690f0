// Package cache is a dependency-free caching substrate for the SPRITE query
// path. SPRITE's whole premise is that peers observe a skewed, repetitive
// query stream (§5 learns index terms from cached past queries); the same
// skew makes the postings fetched over the DHT — the dominant cost in
// messages and bytes — highly cacheable close to the requester.
//
// The cache is a sharded, concurrency-safe LRU with optional TTL, an entry
// bound, approximate-byte accounting, generation-based invalidation in two scopes —
// Invalidate bumps one global generation and every older entry dies lazily,
// InvalidateKey bumps the generation of one key's stripe and only that
// stripe's entries die. A caller that reads remote state to fill a miss takes
// a Mark first and stores with PutAt, which refuses the value if either
// generation moved in between. Every event — hit, miss, store, eviction,
// expiry, stale-generation drop — is counted, occupancy is tracked in gauges,
// and lookup latency is recorded in a histogram when a telemetry registry is
// installed.
package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/vtime"
)

// Config parameterizes a Cache.
type Config struct {
	// MaxEntries bounds the number of live entries (default 4096). The bound
	// is enforced per shard, so the effective capacity is the closest multiple
	// of Shards.
	MaxEntries int
	// TTL bounds entry age; expired entries are dropped lazily on lookup.
	// Zero disables expiry (generation invalidation still applies).
	TTL time.Duration
	// Shards is the number of independently locked segments (default 8).
	Shards int
	// Now supplies expiry timestamps, for TTL tests. Defaults to Clock.Now.
	Now func() time.Time
	// Clock supplies lookup timing. Nil is the wall clock.
	Clock vtime.Clock
	// Telemetry, when non-nil, receives counters/gauges/histograms named
	// "<Name>.hits", "<Name>.entries", "<Name>.lookup_ns", … Nil disables
	// instrumentation; the cache still keeps its own Stats.
	Telemetry *telemetry.Registry
	// Name prefixes the telemetry instrument names (default "cache").
	Name string
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > c.MaxEntries {
		c.Shards = c.MaxEntries
	}
	c.Clock = vtime.Default(c.Clock)
	if c.Now == nil {
		c.Now = c.Clock.Now
	}
	if c.Name == "" {
		c.Name = "cache"
	}
	return c
}

// Stats is a point-in-time snapshot of the cache's counters and occupancy.
type Stats struct {
	Hits        int64 // lookups served from a live entry
	Misses      int64 // lookups that found nothing servable
	Stores      int64 // values inserted (Put or a PutAt that stored)
	Evictions   int64 // entries dropped for capacity (LRU order)
	Expirations int64 // entries dropped because their TTL elapsed
	Invalidated int64 // entries dropped for belonging to an old generation (global or key)
	Entries     int   // live entries right now (stale ones count until touched)
	Bytes       int64 // approximate bytes held by live entries
	Generation  uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cached value, threaded on its shard's LRU list.
type entry[V any] struct {
	key        string
	val        V
	bytes      int64
	gen        uint64 // global generation at store time
	keyGen     uint64 // the key's stripe generation at store time
	expires    int64  // unix nanos; 0 = no expiry
	prev, next *entry[V]
}

// shard is one independently locked cache segment with its own LRU list.
type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	bytes   int64
	// head is most recently used, tail least.
	head, tail *entry[V]
}

// metrics mirrors the counters into a telemetry registry; all nil (inert)
// without one.
type metrics struct {
	hits, misses, stores, evictions    *telemetry.Counter
	expirations, invalidated           *telemetry.Counter
	entriesGauge, bytesGauge, genGauge *telemetry.Gauge
	lookupNS                           *telemetry.Histogram
}

// Cache is a sharded LRU+TTL cache from string keys to values of type V.
// All methods are safe for concurrent use, and safe on a nil *Cache (a nil
// cache behaves as permanently empty: Get misses, Put and PutAt drop), which
// is how a disabled cache is represented.
type Cache[V any] struct {
	cfg    Config
	seed   maphash.Seed
	gen    atomic.Uint64
	shards []*shard[V]
	// keyGens are the key-scoped generations InvalidateKey bumps, striped by
	// keyStripe. Keys sharing a stripe are invalidated together, which costs
	// an extra miss and never a stale hit.
	keyGens [keyStripes]atomic.Uint64

	hits, misses, stores   atomic.Int64
	evictions, expirations atomic.Int64
	invalidated            atomic.Int64

	met metrics
}

// New builds a cache with the given configuration.
func New[V any](cfg Config) *Cache[V] {
	cfg = cfg.withDefaults()
	c := &Cache[V]{cfg: cfg, seed: maphash.MakeSeed()}
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, &shard[V]{entries: make(map[string]*entry[V])})
	}
	if reg := cfg.Telemetry; reg != nil {
		c.met = metrics{
			hits:         reg.Counter(cfg.Name + ".hits"),
			misses:       reg.Counter(cfg.Name + ".misses"),
			stores:       reg.Counter(cfg.Name + ".stores"),
			evictions:    reg.Counter(cfg.Name + ".evictions"),
			expirations:  reg.Counter(cfg.Name + ".expirations"),
			invalidated:  reg.Counter(cfg.Name + ".invalidated"),
			entriesGauge: reg.Gauge(cfg.Name + ".entries"),
			bytesGauge:   reg.Gauge(cfg.Name + ".bytes"),
			genGauge:     reg.Gauge(cfg.Name + ".generation"),
			lookupNS:     reg.Histogram(cfg.Name + ".lookup_ns"),
		}
	}
	return c
}

// keyStripes is the size of the key-generation table. A key-scoped
// invalidation also kills the other cached keys of its stripe — about
// entries/keyStripes of them, a handful at the default 4096-entry capacity.
const keyStripes = 1024

// keyStripe maps a key to its generation stripe with FNV-1a, xor-folded to
// the table size. Unlike the shard hash it is deliberately seed-free: which
// keys share a stripe decides which unrelated entries an InvalidateKey takes
// along, so a per-process seed would make miss counts — and the remote
// fetches behind them — differ from run to run.
func keyStripe(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return (h ^ h>>16) % keyStripes
}

// keyGenFor returns the key-scoped generation that covers key.
func (c *Cache[V]) keyGenFor(key string) *atomic.Uint64 {
	return &c.keyGens[keyStripe(key)]
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := maphash.String(c.seed, key)
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the live value stored under key. Entries that expired or
// predate the current global or key generation are dropped and reported as
// misses.
func (c *Cache[V]) Get(key string) (V, bool) {
	var val V
	if c == nil {
		return val, false
	}
	start := c.cfg.Clock.Now()
	s := c.shardFor(key)
	s.mu.Lock()
	e, live := c.lookupLocked(s, key, c.keyGenFor(key))
	if live {
		s.moveToFront(e)
		val = e.val // copied under the lock: a concurrent Put rewrites the entry in place
	}
	s.mu.Unlock()
	c.met.lookupNS.Observe(c.cfg.Clock.Now().Sub(start).Nanoseconds())
	if !live {
		c.misses.Add(1)
		c.met.misses.Inc()
		return val, false
	}
	c.hits.Add(1)
	c.met.hits.Inc()
	return val, true
}

// lookupLocked finds a servable entry, removing it (and counting why) when
// it is expired or from an old generation, global or keyGen (the key's, from
// keyGenFor). Caller holds s.mu.
func (c *Cache[V]) lookupLocked(s *shard[V], key string, keyGen *atomic.Uint64) (*entry[V], bool) {
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	if e.gen != c.gen.Load() || e.keyGen != keyGen.Load() {
		c.removeLocked(s, e)
		c.invalidated.Add(1)
		c.met.invalidated.Inc()
		return nil, false
	}
	if e.expires != 0 && c.cfg.Now().UnixNano() >= e.expires {
		c.removeLocked(s, e)
		c.expirations.Add(1)
		c.met.expirations.Inc()
		return nil, false
	}
	return e, true
}

// Put stores a value under key, replacing any previous entry. bytes is the
// caller's estimate of the value's memory/wire footprint, used only for
// Stats.Bytes and the occupancy gauge.
func (c *Cache[V]) Put(key string, val V, bytes int) {
	if c == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	c.storeLocked(s, key, val, int64(bytes), c.gen.Load(), c.keyGenFor(key).Load())
	s.mu.Unlock()
}

// Mark is what a key's generations were when Mark(key) was called: PutAt
// stores only if neither has moved since.
type Mark struct{ gen, keyGen uint64 }

// Mark returns key's generations, to be taken before reading the state a
// later PutAt stores. Zero on a nil cache.
func (c *Cache[V]) Mark(key string) Mark {
	if c == nil {
		return Mark{}
	}
	return Mark{c.gen.Load(), c.keyGenFor(key).Load()}
}

// PutAt stores a value only if no Invalidate, and no InvalidateKey of key's
// stripe, happened since m was taken — since before val was read. A caller
// that reads remote state, computes, and stores must use this instead of Put:
// an invalidation racing the read (a write to the key, a peer failure
// injected mid-search) would otherwise be erased by a Put of the stale value
// at the new generation. Returns whether the value was stored.
func (c *Cache[V]) PutAt(m Mark, key string, val V, bytes int) bool {
	if c == nil {
		return false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m != c.Mark(key) {
		return false
	}
	// Store tagged with the marked generations: an invalidation that lands
	// between the check above and a later lookup still kills the entry, since
	// lookups compare the entry's generations against the current ones.
	c.storeLocked(s, key, val, int64(bytes), m.gen, m.keyGen)
	return true
}

// Invalidate bumps the cache generation: every entry stored before this call
// is dead and will be dropped on its next lookup, and a PutAt marked before
// the bump stores nothing. O(1) regardless of size.
func (c *Cache[V]) Invalidate() {
	if c == nil {
		return
	}
	g := c.gen.Add(1)
	c.met.genGauge.Set(int64(g))
}

// InvalidateKey is Invalidate scoped to one key: the entry stored under key
// before this call is dead, and a PutAt of key marked before it stores
// nothing. Other keys survive, save the few that share key's generation
// stripe. O(len(key)).
func (c *Cache[V]) InvalidateKey(key string) {
	if c == nil {
		return
	}
	c.keyGenFor(key).Add(1)
}

// Stats snapshots the counters and occupancy. Safe on nil (all zeros).
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Stores:      c.stores.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		Invalidated: c.invalidated.Load(),
		Generation:  c.gen.Load(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// storeLocked inserts or replaces an entry and evicts from the LRU tail
// until the shard is back within its entry budget. Caller holds s.mu.
func (c *Cache[V]) storeLocked(s *shard[V], key string, val V, bytes int64, gen, keyGen uint64) {
	if e, ok := s.entries[key]; ok {
		s.bytes += bytes - e.bytes
		c.met.bytesGauge.Add(bytes - e.bytes)
		e.val, e.bytes, e.gen, e.keyGen = val, bytes, gen, keyGen
		e.expires = c.expiry()
		s.moveToFront(e)
	} else {
		e = &entry[V]{key: key, val: val, bytes: bytes, gen: gen, keyGen: keyGen, expires: c.expiry()}
		s.entries[key] = e
		s.bytes += bytes
		s.pushFront(e)
		c.met.entriesGauge.Add(1)
		c.met.bytesGauge.Add(bytes)
	}
	c.stores.Add(1)
	c.met.stores.Inc()

	maxEntries := c.cfg.MaxEntries / len(c.shards)
	if maxEntries < 1 {
		maxEntries = 1
	}
	for s.tail != nil && len(s.entries) > maxEntries {
		c.removeLocked(s, s.tail)
		c.evictions.Add(1)
		c.met.evictions.Inc()
	}
}

func (c *Cache[V]) expiry() int64 {
	if c.cfg.TTL <= 0 {
		return 0
	}
	return c.cfg.Now().Add(c.cfg.TTL).UnixNano()
}

// removeLocked unlinks an entry and updates accounting. Caller holds s.mu.
func (c *Cache[V]) removeLocked(s *shard[V], e *entry[V]) {
	delete(s.entries, e.key)
	s.unlink(e)
	s.bytes -= e.bytes
	c.met.entriesGauge.Add(-1)
	c.met.bytesGauge.Add(-e.bytes)
}

// LRU list plumbing. Caller holds s.mu for all of these.

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
