package cache

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

func TestPutGet(t *testing.T) {
	c := New[string](Config{MaxEntries: 8, Shards: 1})
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", "alpha", 5)
	v, ok := c.Get("a")
	if !ok || v != "alpha" {
		t.Fatalf("Get(a) = %q, %v; want alpha, true", v, ok)
	}
	c.Put("a", "alpha2", 6)
	if v, _ := c.Get("a"); v != "alpha2" {
		t.Fatalf("replacement not visible: got %q", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Stores != 2 {
		t.Fatalf("stats = %+v; want 2 hits, 1 miss, 2 stores", st)
	}
	if st.Entries != 1 || st.Bytes != 6 {
		t.Fatalf("occupancy = %d entries / %d bytes; want 1 / 6", st.Entries, st.Bytes)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](Config{MaxEntries: 3, Shards: 1})
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Put("c", 3, 1)
	c.Get("a") // refresh a; b becomes least recently used
	c.Put("d", 4, 1)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d; want 1", ev)
	}
}

func TestMaxBytesEviction(t *testing.T) {
	c := New[int](Config{MaxEntries: 100, MaxBytes: 10, Shards: 1})
	c.Put("a", 1, 4)
	c.Put("b", 2, 4)
	c.Put("c", 3, 4) // 12 bytes > 10: a (LRU) must go
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted for the byte bound")
	}
	if st := c.Stats(); st.Bytes > 10 {
		t.Fatalf("bytes = %d; want <= 10", st.Bytes)
	}
	// A single oversized entry is kept (never evict the only entry for bytes).
	c2 := New[int](Config{MaxEntries: 4, MaxBytes: 10, Shards: 1})
	c2.Put("huge", 1, 1000)
	if _, ok := c2.Get("huge"); !ok {
		t.Fatal("sole oversized entry should be retained")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New[int](Config{MaxEntries: 8, TTL: time.Minute, Now: clock, Shards: 1})
	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry should be live")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("59s-old entry should still be live under a 1m TTL")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("61s-old entry should have expired")
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d; want 1", st.Expirations)
	}
	if st.Entries != 0 {
		t.Fatalf("expired entry still occupies the cache: %+v", st)
	}
}

func TestGenerationInvalidation(t *testing.T) {
	c := New[int](Config{MaxEntries: 8, Shards: 1})
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Invalidate()
	if _, ok := c.Get("a"); ok {
		t.Fatal("pre-invalidation entry served after Invalidate")
	}
	c.Put("a", 3, 1)
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("post-invalidation store not served: %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Invalidated != 1 {
		t.Fatalf("invalidated = %d; want 1 (only the touched entry)", st.Invalidated)
	}
	if st.Generation != 1 {
		t.Fatalf("generation = %d; want 1", st.Generation)
	}
}

func TestGetOrFillBasics(t *testing.T) {
	c := New[string](Config{MaxEntries: 8, Shards: 1})
	fills := 0
	fill := func() (string, int, error) { fills++; return "v", 1, nil }
	v, out, err := c.GetOrFill("k", fill)
	if err != nil || v != "v" || out != Filled {
		t.Fatalf("cold GetOrFill = %q, %v, %v; want v, Filled, nil", v, out, err)
	}
	v, out, err = c.GetOrFill("k", fill)
	if err != nil || v != "v" || out != Hit {
		t.Fatalf("warm GetOrFill = %q, %v, %v; want v, Hit, nil", v, out, err)
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times; want 1", fills)
	}
}

func TestGetOrFillErrorNotCached(t *testing.T) {
	c := New[string](Config{MaxEntries: 8, Shards: 1})
	boom := errors.New("boom")
	_, _, err := c.GetOrFill("k", func() (string, int, error) { return "", 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed fill was cached")
	}
	v, out, err := c.GetOrFill("k", func() (string, int, error) { return "ok", 2, nil })
	if err != nil || v != "ok" || out != Filled {
		t.Fatalf("retry after failed fill = %q, %v, %v", v, out, err)
	}
}

func TestGetOrFillCoalescing(t *testing.T) {
	c := New[int](Config{MaxEntries: 8, Shards: 1, Telemetry: telemetry.NewRegistry(), Name: "c"})
	const n = 16
	var fills atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	results := make([]int, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.GetOrFill("k", func() (int, int, error) {
				fills.Add(1)
				once.Do(func() { close(started) })
				<-gate // hold the fill open so the others pile up
				return 42, 1, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}()
	}
	<-started
	// Wait until the other n-1 callers are blocked on the flight. Coalesced
	// is counted before blocking, so poll the counter.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers coalesced", c.Stats().Coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times; want exactly 1", got)
	}
	filled, coalesced := 0, 0
	for i := range results {
		if results[i] != 42 {
			t.Fatalf("caller %d got %d; want 42", i, results[i])
		}
		switch outcomes[i] {
		case Filled:
			filled++
		case Coalesced:
			coalesced++
		}
	}
	if filled != 1 || coalesced != n-1 {
		t.Fatalf("outcomes: %d filled, %d coalesced; want 1, %d", filled, coalesced, n-1)
	}
	if got := c.Stats().Coalesced; got != n-1 {
		t.Fatalf("coalesce counter = %d; want %d", got, n-1)
	}
}

func TestInvalidateDuringFillNotStored(t *testing.T) {
	c := New[int](Config{MaxEntries: 8, Shards: 1})
	inFill := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.GetOrFill("k", func() (int, int, error) {
			close(inFill)
			<-gate
			return 7, 1, nil
		})
		if err != nil || v != 7 {
			t.Errorf("filler got %d, %v", v, err)
		}
	}()
	<-inFill
	c.Invalidate() // the index changed while the fill was in flight
	close(gate)
	<-done
	if _, ok := c.Get("k"); ok {
		t.Fatal("fill that started before Invalidate was stored")
	}
}

// differentStripeKey returns a key that does not share key's generation
// stripe, so the pair exercises the scoping rather than a collision.
func differentStripeKey(t *testing.T, key string) string {
	t.Helper()
	for i := 0; i < 100; i++ {
		if other := fmt.Sprintf("other%d", i); keyStripe(other) != keyStripe(key) {
			return other
		}
	}
	t.Fatalf("no key found off the stripe of %q", key)
	return ""
}

func TestInvalidateKeyScope(t *testing.T) {
	c := New[int](Config{MaxEntries: 8, Shards: 1})
	b := differentStripeKey(t, "a")
	c.Put("a", 1, 1)
	c.Put(b, 2, 1)
	c.InvalidateKey("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry served after InvalidateKey of its key")
	}
	if v, ok := c.Get(b); !ok || v != 2 {
		t.Fatalf("InvalidateKey(a) took unrelated key %q along: %v, %v", b, v, ok)
	}
	c.Put("a", 3, 1)
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("store after InvalidateKey not served: %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Invalidated != 1 {
		t.Fatalf("invalidated = %d; want 1", st.Invalidated)
	}
	if st.Generation != 0 {
		t.Fatalf("InvalidateKey moved the global generation to %d", st.Generation)
	}
	// The global scope still covers every key.
	c.Invalidate()
	if _, ok := c.Get(b); ok {
		t.Fatal("entry served after Invalidate")
	}
}

// TestInvalidateKeyDuringFillNotStored is the key-scoped twin of
// TestInvalidateDuringFillNotStored, with a coalesced waiter on the flight:
// both callers get the value, the cache does not keep it.
func TestInvalidateKeyDuringFillNotStored(t *testing.T) {
	c := New[int](Config{MaxEntries: 8, Shards: 1})
	inFill := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	call := func(fill func() (int, int, error)) {
		defer wg.Done()
		if v, _, err := c.GetOrFill("k", fill); err != nil || v != 7 {
			t.Errorf("GetOrFill = %d, %v; want 7, nil", v, err)
		}
	}
	wg.Add(1)
	go call(func() (int, int, error) {
		close(inFill)
		<-gate
		return 7, 1, nil
	})
	<-inFill
	wg.Add(1)
	go call(func() (int, int, error) {
		t.Error("waiter ran its own fill instead of coalescing")
		return 0, 0, nil
	})
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced < 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced on the flight")
		}
		time.Sleep(time.Millisecond)
	}
	c.InvalidateKey("k") // k's source changed while the fill was in flight
	close(gate)
	wg.Wait()
	if _, ok := c.Get("k"); ok {
		t.Fatal("fill that started before InvalidateKey was stored")
	}
}

// TestKeyStripeSeedFree pins that the stripe of a key does not depend on the
// cache instance or process: collateral invalidations, and with them miss and
// message counts, must repeat from run to run.
func TestKeyStripeSeedFree(t *testing.T) {
	// The stripe is the standard library's FNV-1a, xor-folded onto the table.
	for _, k := range []string{"", "a", "alpha", "beta gamma\x005"} {
		h := fnv.New32a()
		h.Write([]byte(k))
		if got, want := keyStripe(k), (h.Sum32()^h.Sum32()>>16)%keyStripes; got != want {
			t.Fatalf("keyStripe(%q) = %d; want %d", k, got, want)
		}
	}
	// Two caches (two maphash seeds) agree on what a collision is: a key
	// invalidated through a stripe-mate dies in both or in neither.
	mate := ""
	for i := 0; mate == ""; i++ {
		if k := fmt.Sprintf("k%d", i); keyStripe(k) == keyStripe("alpha") {
			mate = k
		}
	}
	for i := 0; i < 2; i++ {
		c := New[int](Config{MaxEntries: 8})
		c.Put("alpha", 1, 1)
		c.InvalidateKey(mate)
		if _, ok := c.Get("alpha"); ok {
			t.Fatalf("cache %d: alpha survived the invalidation of its stripe-mate %q", i, mate)
		}
	}
}

func TestTelemetryInstruments(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int](Config{MaxEntries: 2, Shards: 1, Telemetry: reg, Name: "cache.test"})
	c.Put("a", 1, 3)
	c.Put("b", 2, 3)
	c.Get("a")
	c.Get("zzz")
	c.Put("c", 3, 3) // evicts
	if got := reg.Counter("cache.test.hits").Value(); got != 1 {
		t.Fatalf("hits counter = %d; want 1", got)
	}
	if got := reg.Counter("cache.test.misses").Value(); got != 1 {
		t.Fatalf("misses counter = %d; want 1", got)
	}
	if got := reg.Counter("cache.test.evictions").Value(); got != 1 {
		t.Fatalf("evictions counter = %d; want 1", got)
	}
	if got := reg.Gauge("cache.test.entries").Value(); got != 2 {
		t.Fatalf("entries gauge = %d; want 2", got)
	}
	if got := reg.Gauge("cache.test.bytes").Value(); got != 6 {
		t.Fatalf("bytes gauge = %d; want 6", got)
	}
	if got := reg.Histogram("cache.test.lookup_ns").Count(); got != 2 {
		t.Fatalf("lookup histogram count = %d; want 2", got)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache[int]
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("k", 1, 1)
	c.Delete("k")
	c.Invalidate()
	c.InvalidateKey("k")
	v, out, err := c.GetOrFill("k", func() (int, int, error) { return 9, 1, nil })
	if err != nil || v != 9 || out != Filled {
		t.Fatalf("nil GetOrFill = %d, %v, %v; want 9, Filled, nil", v, out, err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v; want zero", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
}

func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("empty hit rate = %v; want 0", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("hit rate = %v; want 0.75", r)
	}
}

// TestConcurrentHammer drives every operation from many goroutines; its
// value is running under -race.
func TestConcurrentHammer(t *testing.T) {
	c := New[int](Config{MaxEntries: 64, MaxBytes: 4096, TTL: 50 * time.Millisecond, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%97)
				switch i % 5 {
				case 0:
					c.Put(key, i, 8)
				case 1:
					c.Get(key)
				case 2:
					c.GetOrFill(key, func() (int, int, error) { return i, 8, nil })
				case 3:
					c.Delete(key)
				default:
					if i%100 == 0 {
						c.Invalidate()
					}
					c.InvalidateKey(key)
					c.Stats()
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 64+4 {
		t.Fatalf("cache grew past its bound: %d entries", c.Len())
	}
}

func TestPutAtGenerationGuard(t *testing.T) {
	c := New[int](Config{MaxEntries: 8, Shards: 1})

	// Current generation: stores and is served.
	gen := c.Generation()
	if !c.PutAt(gen, "a", 1, 1) {
		t.Fatal("PutAt at the current generation refused")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("PutAt entry not served: %v, %v", v, ok)
	}

	// The FailPeer race, deterministically: an invalidation lands between
	// observing the generation and storing — the stale result must not stick.
	gen = c.Generation()
	c.Invalidate()
	if c.PutAt(gen, "b", 2, 1) {
		t.Fatal("PutAt accepted a store conditioned on a dead generation")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("stale entry served after generation moved")
	}

	// A nil cache (caching disabled) ignores the store.
	var nc *Cache[int]
	if nc.PutAt(0, "x", 1, 1) {
		t.Fatal("nil cache claimed to store")
	}
}
