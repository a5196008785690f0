// Package repair is the peer-driven data-placement subsystem's logic layer:
// compact Merkle-style summaries of an arc's term population and the diff
// computations behind join/leave handoff and periodic anti-entropy.
//
// Placement maintenance used to be owner-driven: entries migrated to a new
// key owner only when the sharing peer's periodic refresh happened to
// re-publish them. The repair subsystem inverts that: the peers holding the
// data keep it placed. Indexing peers hand entries to a joiner the moment
// stabilization adopts it as predecessor, a gracefully leaving peer pushes
// its entries to its successor before unregistering, and every peer
// exchanges per-arc digests of what it serves with its K replica holders,
// pushing the divergent lists and dropping the withdrawn ones — the only
// way replicas are made and removed. This package holds the transport-free
// pieces — digest folding, divergence detection, term-set diffing — so they
// are testable in isolation; internal/core drives the message protocol.
package repair

import "sort"

// Buckets is the fan-out of an arc summary's single interior level. Terms
// are spread over the buckets by an ID-independent hash of the term string
// (not the term's ring position — an arc is a contiguous ID range, so
// position-based bucketing would pile every term of a narrow arc into one
// bucket and localize nothing).
const Buckets = 16

// Metric names exported by the subsystem. The core layer registers them on
// its telemetry registry; they appear in snapshots like every other counter.
const (
	// MetricHandoffs counts index entries moved by join/leave handoff.
	MetricHandoffs = "sprite.repair.handoffs"
	// MetricReconciles counts anti-entropy digest exchanges performed.
	MetricReconciles = "sprite.repair.reconciles"
	// MetricDivergentTerms counts terms an exchange found divergent (pushed
	// or dropped on the replica side).
	MetricDivergentTerms = "sprite.repair.divergent_terms"
)

// Summary is a two-level Merkle digest of a term→digest population: Root
// commits to all of it, Buckets localize a divergence to 1/Buckets of the
// terms. Equal Roots mean (up to hash collision) identical populations, so
// the synchronized case costs one exchange of 8 bytes of payload.
type Summary struct {
	Root    uint64
	Buckets [Buckets]uint64
}

// BucketOf returns the summary bucket a term folds into. The FNV hash is
// finalized through mix first: FNV-1a's high bits barely change across
// short, similar strings, while the finalizer's avalanche spreads them.
func BucketOf(term string) int {
	return int(mix(strHash(term)) & (Buckets - 1))
}

// Fold builds the summary of a term→digest population (index.ArcDigests
// output). Each term contributes mix(termHash, digest) to its bucket by
// XOR, so folding is order-insensitive; Root re-hashes the bucket vector.
func Fold(digests map[string]uint64) Summary {
	var s Summary
	for t, d := range digests {
		s.Buckets[BucketOf(t)] ^= mix(strHash(t) ^ mix(d))
	}
	for i, b := range s.Buckets {
		s.Root = mix(s.Root ^ mix(b+uint64(i)))
	}
	return s
}

// Divergent returns the buckets where the two summaries disagree, nil when
// the roots match. The slice is ordered, so protocol messages built from it
// are deterministic.
func Divergent(a, b Summary) []int {
	if a.Root == b.Root {
		return nil
	}
	var out []int
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			out = append(out, i)
		}
	}
	return out
}

// InBuckets filters a term→digest map down to the terms falling in the
// given buckets.
func InBuckets(digests map[string]uint64, buckets []int) map[string]uint64 {
	want := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		want[b] = true
	}
	out := make(map[string]uint64)
	for t, d := range digests {
		if want[BucketOf(t)] {
			out[t] = d
		}
	}
	return out
}

// DiffTerms compares an authoritative term→digest map against a local copy
// (both already restricted to the same arc and buckets) from the copy
// holder's perspective: need lists the terms whose authoritative list must
// be fetched (missing locally or digest mismatch), drop lists local terms
// the authority no longer has. Both are sorted.
func DiffTerms(authoritative, local map[string]uint64) (need, drop []string) {
	for t, d := range authoritative {
		if local[t] != d {
			need = append(need, t)
		}
	}
	for t := range local {
		if _, ok := authoritative[t]; !ok {
			drop = append(drop, t)
		}
	}
	sort.Strings(need)
	sort.Strings(drop)
	return need, drop
}

// strHash is FNV-1a over the term string, the bucket-spreading hash.
func strHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix is the splitmix64 finalizer: a cheap bijective scrambler that keeps
// XOR-folded contributions from canceling structurally.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
