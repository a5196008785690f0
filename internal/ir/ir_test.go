package ir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spritedht/sprite/internal/index"
)

func TestWeight(t *testing.T) {
	got := Weight(0.1, 1000, 10)
	want := 0.1 * math.Log(100)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Weight = %v, want %v", got, want)
	}
}

func TestWeightDegenerate(t *testing.T) {
	if Weight(0.5, 1000, 0) != 0 {
		t.Error("zero df must yield zero weight")
	}
	if Weight(0.5, 0, 3) != 0 {
		t.Error("zero N must yield zero weight")
	}
}

func TestWeightMonotoneInIDF(t *testing.T) {
	// Rarer terms weigh more.
	if Weight(0.1, 1000, 5) <= Weight(0.1, 1000, 50) {
		t.Fatal("weight not decreasing in document frequency")
	}
}

func TestQueryWeight(t *testing.T) {
	got := QueryWeight(1, 4, LargeN, 100)
	want := Weight(0.25, LargeN, 100)
	if got != want {
		t.Fatalf("QueryWeight = %v, want %v", got, want)
	}
	if QueryWeight(1, 0, LargeN, 100) != 0 {
		t.Fatal("zero-length query must yield 0")
	}
}

func TestSimilarity(t *testing.T) {
	if got := Similarity(2.0, 4); got != 1.0 {
		t.Fatalf("Similarity(2, 4) = %v, want 1 (2/sqrt(4))", got)
	}
	if Similarity(1.0, 0) != 0 {
		t.Fatal("zero-length doc must yield 0")
	}
}

func TestRankedListSortDeterministic(t *testing.T) {
	rl := RankedList{
		{Doc: "b", Score: 1.0},
		{Doc: "a", Score: 1.0},
		{Doc: "c", Score: 2.0},
	}
	rl.Sort()
	wantOrder := []index.DocID{"c", "a", "b"}
	for i, w := range wantOrder {
		if rl[i].Doc != w {
			t.Fatalf("rank %d = %s, want %s (ties must break by DocID)", i, rl[i].Doc, w)
		}
	}
}

func TestRankedListTop(t *testing.T) {
	rl := RankedList{{Doc: "a", Score: 3}, {Doc: "b", Score: 2}, {Doc: "c", Score: 1}}
	if got := rl.Top(2); len(got) != 2 || got[1].Doc != "b" {
		t.Fatalf("Top(2) = %v", got)
	}
	if got := rl.Top(10); len(got) != 3 {
		t.Fatalf("Top beyond length = %v", got)
	}
}

func TestRankedListRankAndDocs(t *testing.T) {
	rl := RankedList{{Doc: "x", Score: 2}, {Doc: "y", Score: 1}}
	if rl.Rank("y") != 1 || rl.Rank("zz") != -1 {
		t.Fatal("Rank misbehaved")
	}
	docs := rl.Docs()
	if len(docs) != 2 || docs[0] != "x" {
		t.Fatalf("Docs = %v", docs)
	}
}

func TestAccumulator(t *testing.T) {
	acc := NewAccumulator()
	acc.Accumulate("d1", 0.5, 25) // sim = 0.5/5 = 0.1
	acc.Accumulate("d1", 0.5, 25) // sim = 1.0/5 = 0.2
	acc.Accumulate("d2", 0.9, 9)  // sim = 0.9/3 = 0.3
	rl := acc.Ranked()
	if rl[0].Doc != "d2" {
		t.Fatalf("rank 1 = %v, want d2", rl[0])
	}
	if math.Abs(rl[0].Score-0.3) > 1e-12 || math.Abs(rl[1].Score-0.2) > 1e-12 {
		t.Fatalf("scores = %v", rl)
	}
}

func TestAccumulatorSumsInArrivalOrder(t *testing.T) {
	// Property: the accumulator's per-document score is bit-identical (==,
	// not within epsilon) to a left-to-right fold of that document's
	// contributions in arrival order. Float addition is not associative, so
	// this is the contract that makes parallel query execution — which
	// collects per-term contribution slices and folds them in term order —
	// reproduce sequential rankings exactly.
	rng := rand.New(rand.NewSource(42))
	type posting struct {
		doc     index.DocID
		contrib float64
		docLen  int
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		stream := make([]posting, n)
		for i := range stream {
			stream[i] = posting{
				doc: index.DocID(fmt.Sprintf("d%d", rng.Intn(12))),
				// Irregular magnitudes make float addition order-sensitive,
				// so any ordering bug shows up as a score mismatch.
				contrib: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)),
				docLen:  1 + rng.Intn(500),
			}
		}

		acc := NewAccumulator()
		dot := map[index.DocID]float64{}
		dlen := map[index.DocID]int{}
		for _, p := range stream {
			acc.Accumulate(p.doc, p.contrib, p.docLen)
			dot[p.doc] += p.contrib
			dlen[p.doc] = p.docLen
		}

		got := acc.Ranked()
		if len(got) != len(dot) {
			t.Fatalf("trial %d: %d docs ranked, want %d", trial, len(got), len(dot))
		}
		for i, h := range got {
			want := Similarity(dot[h.Doc], dlen[h.Doc])
			if h.Score != want {
				t.Fatalf("trial %d rank %d doc %s: score %v, want %v (must be bit-identical)",
					trial, i, h.Doc, h.Score, want)
			}
		}
	}
}

func TestAccumulatorResetReuse(t *testing.T) {
	acc := NewAccumulator()
	acc.Accumulate("stale", 9.0, 4)
	acc.Reset()
	if acc.Len() != 0 {
		t.Fatalf("Len after Reset = %d", acc.Len())
	}
	acc.Accumulate("d", 1.0, 4)
	if rl := acc.Ranked(); len(rl) != 1 || rl[0].Doc != "d" || rl[0].Score != 0.5 {
		t.Fatalf("reused accumulator leaked state: %v", rl)
	}
}

func TestRankedTopMatchesFullSort(t *testing.T) {
	// Property: RankedTop(k) must equal Ranked().Top(k) exactly for every k —
	// (score, doc) is a strict total order, so there is only one correct
	// answer and the bounded-heap selection must find it.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		acc := NewAccumulator()
		docs := 1 + rng.Intn(40)
		for i := 0; i < docs; i++ {
			// A coarse score grid forces plenty of exact ties, exercising the
			// DocID tie-break inside the heap comparisons.
			acc.Accumulate(index.DocID(fmt.Sprintf("d%02d", i)),
				float64(rng.Intn(5)), 4)
		}
		for _, k := range []int{0, 1, 2, docs / 2, docs - 1, docs, docs + 3} {
			want := acc.Ranked().Top(k)
			got := acc.RankedTop(k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: len %d, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d rank %d: %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEvaluate(t *testing.T) {
	relevant := map[index.DocID]bool{"a": true, "b": true, "c": true, "d": true}
	returned := []index.DocID{"a", "x", "b", "y"}
	m := Evaluate(returned, relevant)
	if m.Precision != 0.5 {
		t.Fatalf("precision = %v, want 0.5", m.Precision)
	}
	if m.Recall != 0.5 {
		t.Fatalf("recall = %v, want 0.5 (2 of 4 relevant found)", m.Recall)
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	if m := Evaluate(nil, map[index.DocID]bool{"a": true}); m.Precision != 0 || m.Recall != 0 {
		t.Fatalf("empty returned list: %+v", m)
	}
	if m := Evaluate([]index.DocID{"a"}, map[index.DocID]bool{}); m.Recall != 0 {
		t.Fatalf("empty relevant set must give zero recall, got %+v", m)
	}
}

func TestMeanMetrics(t *testing.T) {
	ms := []Metrics{{Precision: 1, Recall: 0.5}, {Precision: 0.5, Recall: 1}}
	mean := MeanMetrics(ms)
	if mean.Precision != 0.75 || mean.Recall != 0.75 {
		t.Fatalf("mean = %+v", mean)
	}
	if zero := MeanMetrics(nil); zero != (Metrics{}) {
		t.Fatalf("MeanMetrics(nil) = %+v", zero)
	}
}

func TestRatio(t *testing.T) {
	sys := Metrics{Precision: 0.45, Recall: 0.3}
	base := Metrics{Precision: 0.5, Recall: 0.6}
	r := Ratio(sys, base)
	if math.Abs(r.Precision-0.9) > 1e-12 || math.Abs(r.Recall-0.5) > 1e-12 {
		t.Fatalf("ratio = %+v", r)
	}
	if z := Ratio(sys, Metrics{}); z != (Metrics{}) {
		t.Fatalf("ratio with zero baseline = %+v, want zero", z)
	}
}

// Property: precision and recall always lie in [0, 1].
func TestEvaluateBoundsProperty(t *testing.T) {
	f := func(retSeed, relSeed uint8) bool {
		var returned []index.DocID
		for i := 0; i < int(retSeed)%10; i++ {
			returned = append(returned, index.DocID(rune('a'+i%5)))
		}
		relevant := map[index.DocID]bool{}
		for i := 0; i < int(relSeed)%7; i++ {
			relevant[index.DocID(rune('a'+i%5))] = true
		}
		m := Evaluate(returned, relevant)
		return m.Precision >= 0 && m.Precision <= 1 && m.Recall >= 0 && m.Recall <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: similarity is monotone in the dot product for fixed doc length.
func TestSimilarityMonotoneProperty(t *testing.T) {
	f := func(a, b float64, dl uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || dl == 0 {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return Similarity(lo, int(dl)) <= Similarity(hi, int(dl))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
