package main

import (
	"math"
	"math/rand"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the sample
// at or below it. An empty sample yields 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the middle two for an even
// count), leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^slope by inverse-CDF search — the paper's "w-zipf" query
// popularity (§6.3, slope 0.5).
type zipf struct {
	cum []float64
}

func newZipf(n int, slope float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for r := range z.cum {
		total += 1 / math.Pow(float64(r+1), slope)
		z.cum[r] = total
	}
	return z
}

// draw consumes exactly one rng.Float64 per sample, so the operation stream
// is a pure function of the seed.
func (z *zipf) draw(rng *rand.Rand) int {
	x := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, x)
}

// subSeed derives the independent seed of one generator stage from a root
// seed with a splitmix64 step per stage, so stages never share a stream. The
// text stages (corpus, query generator, split) hang off collectionSeed, the
// traffic stages (Zipf draw, issuer rotation, link delays, warm-up) off
// -seed: every input is a function of those two numbers alone.
func subSeed(seed int64, stage uint64) int64 {
	x := uint64(seed) + (stage+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}
