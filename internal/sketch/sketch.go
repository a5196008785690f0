// Package sketch builds fixed-width, quantized feature vectors for
// documents — the compact per-document metadata that lets SPRITE's overlay
// answer vector-similarity queries without a second routing structure
// (ROADMAP: "Beyond keyword search"; Müller et al. compare exactly this
// workload across P2P systems, and the BitTorrent-DHT indexing paper is the
// reference for keeping such metadata DHT-cheap).
//
// A sketch is a random projection of the document's weighted term vector
// onto Dims pseudo-random ±1 directions, quantized to int8. Projection
// directions are derived purely from (Seed, term, dimension) through
// splitmix64, so any two peers — or any two runs — sketch the same document
// to byte-identical vectors with no shared state beyond the configuration.
// Accumulation folds terms in sorted order, pinning float addition order the
// same way the query path pins scoring order (see DESIGN.md § Determinism).
//
// The serialized form is scored directly: CosineBytes operates on the
// encoded bytes with integer arithmetic (one float division at the end), so
// re-ranking a candidate stream never materializes a decoded vector. It
// tolerates malformed bytes — a garbage sketch scores zero, it never panics
// (FuzzSketch pins this).
package sketch

import (
	"fmt"
	"math"
	"sort"
)

const (
	// formatV1 tags the serialized sketch layout:
	//
	//	byte   formatV1
	//	uvarint dims        1 <= dims <= MaxDims
	//	dims bytes          int8 components, two's complement
	formatV1 = 0x01
	// MaxDims bounds the vector width: wide enough for high-fidelity
	// sketches, small enough that a hostile length can never size a large
	// allocation.
	MaxDims = 1024
	// DefaultDims balances fidelity against per-posting weight: at 128
	// int8 components a sketch rides a posting for ~131 bytes and keeps
	// quantized cosine within a few hundredths of the float projection.
	DefaultDims = 128
	// DefaultRouteTerms is how many of a query document's most frequent
	// terms route candidate retrieval in core.SearchSimilar.
	DefaultRouteTerms = 6
)

// Config tunes sketching. The zero value is disabled; Enabled with zero
// fields gets the defaults.
type Config struct {
	// Enabled turns sketching on: shared documents carry a sketch in every
	// posting, and the similarity query path becomes available.
	Enabled bool
	// Dims is the number of int8 components per sketch (default 128,
	// max MaxDims).
	Dims int
	// RouteTerms is how many of the query document's most frequent terms
	// are used to fetch candidate postings in a similarity search
	// (default 6).
	RouteTerms int
	// Seed parameterizes the projection directions. Every peer of a
	// deployment must use the same value; the zero value is a fixed
	// published constant, not a random draw.
	Seed uint64
	// Refine, when positive, adds an exact re-ranking stage to similarity
	// queries: the top Refine candidates by sketch cosine have their full
	// term vectors fetched from their owner peers (one message each) and are
	// re-scored by exact weighted cosine before the final top-k cut. Zero
	// ranks by sketch cosine alone. The sketch stays the cheap first-stage
	// filter either way; Refine trades messages for the last few points of
	// recall the int8 quantization costs.
	Refine int
}

// FillDefaults resolves zero fields of an enabled configuration.
func (c Config) FillDefaults() Config {
	if !c.Enabled {
		return c
	}
	if c.Dims == 0 {
		c.Dims = DefaultDims
	}
	if c.RouteTerms == 0 {
		c.RouteTerms = DefaultRouteTerms
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	switch {
	case c.Dims < 1 || c.Dims > MaxDims:
		return fmt.Errorf("sketch: Dims = %d, need 1..%d", c.Dims, MaxDims)
	case c.RouteTerms < 1:
		return fmt.Errorf("sketch: RouteTerms = %d, need >= 1", c.RouteTerms)
	case c.Refine < 0:
		return fmt.Errorf("sketch: Refine = %d, need >= 0", c.Refine)
	}
	return nil
}

// Vector is a quantized sketch: Dims int8 components. The zero-length
// vector is "no sketch".
type Vector []int8

// Sketcher projects term vectors into quantized sketches under one
// configuration. It is stateless and safe for concurrent use.
type Sketcher struct {
	dims int
	seed uint64
}

// New builds a Sketcher from cfg (which must be enabled and valid).
func New(cfg Config) (*Sketcher, error) {
	cfg = cfg.FillDefaults()
	if !cfg.Enabled {
		return nil, fmt.Errorf("sketch: config not enabled")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sketcher{dims: cfg.Dims, seed: cfg.Seed}, nil
}

// Dims returns the configured vector width.
func (s *Sketcher) Dims() int { return s.dims }

// splitmix64 is the standard 64-bit mixing step — a full-period,
// well-distributed permutation used here as the deterministic source of
// projection directions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// termSeed hashes (seed, term) into the starting state of the term's
// direction stream (FNV-1a folded with the configured seed).
func (s *Sketcher) termSeed(term string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ s.seed
	for i := 0; i < len(term); i++ {
		h ^= uint64(term[i])
		h *= prime64
	}
	return h
}

// Project accumulates the weighted term vector's projection onto the
// pseudo-random ±1 directions, before quantization. Terms fold in sorted
// order so the float accumulation order — and hence the exact bits — is a
// pure function of the term-frequency map's contents.
func (s *Sketcher) Project(tf map[string]int) []float64 {
	acc := make([]float64, s.dims)
	terms := make([]string, 0, len(tf))
	for t, f := range tf {
		if f > 0 {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	for _, t := range terms {
		w := 1 + math.Log10(float64(tf[t]))
		state := s.termSeed(t)
		var word uint64
		for d := 0; d < s.dims; d++ {
			if d%64 == 0 {
				state = splitmix64(state)
				word = state
			}
			if word&1 == 1 {
				acc[d] += w
			} else {
				acc[d] -= w
			}
			word >>= 1
		}
	}
	return acc
}

// Quantize scales a projection to int8: the largest-magnitude component
// maps to ±127 and the rest scale linearly, rounding half away from zero.
// An all-zero projection quantizes to the zero vector.
func Quantize(acc []float64) Vector {
	maxAbs := 0.0
	for _, v := range acc {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	q := make(Vector, len(acc))
	if maxAbs == 0 {
		return q
	}
	for i, v := range acc {
		q[i] = int8(math.Round(127 * v / maxAbs))
	}
	return q
}

// Sketch projects and quantizes a document's term-frequency vector.
// Identical inputs produce byte-identical sketches on every run and peer.
func (s *Sketcher) Sketch(tf map[string]int) Vector {
	return Quantize(s.Project(tf))
}

// SketchBytes is Sketch in serialized form — what rides inside a posting.
func (s *Sketcher) SketchBytes(tf map[string]int) []byte {
	b, _ := s.Sketch(tf).MarshalBinary()
	return b
}
