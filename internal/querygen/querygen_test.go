package querygen

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/spritedht/sprite/internal/central"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
)

func testCollection(t *testing.T) (*corpus.Collection, *central.System) {
	t.Helper()
	col, err := corpus.Synthesize(corpus.SynthConfig{
		NumDocs: 300, NumTopics: 5, VocabPerTopic: 60, BackgroundVocab: 200,
		DocLenMin: 60, DocLenMax: 150, NumQueries: 10, Seed: 42,
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return col, central.New(col.Corpus)
}

func TestGenerateCounts(t *testing.T) {
	col, sys := testCollection(t)
	g, err := Generate(col, sys, Config{PerOriginal: 9, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// 10 originals × (1 + 9) = 100 queries, the paper's 63→630 scaled down.
	if len(g.Queries) != 100 {
		t.Fatalf("queries = %d, want 100", len(g.Queries))
	}
	if len(g.Origin) != 100 {
		t.Fatalf("origin map = %d entries", len(g.Origin))
	}
}

func TestGenerateOverlapRespected(t *testing.T) {
	col, sys := testCollection(t)
	g, err := Generate(col, sys, Config{PerOriginal: 5, Overlap: 0.7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*corpus.Query{}
	for _, q := range col.Queries {
		byID[q.ID] = q
	}
	for _, q := range g.Queries {
		origID := g.Origin[q.ID]
		if q.ID == origID {
			continue // original
		}
		orig := byID[origID]
		shared := 0
		for _, term := range q.Terms {
			if slices.Contains(orig.Terms, term) {
				shared++
			}
		}
		want := int(0.7*float64(len(orig.Terms)) + 0.5)
		if shared < want {
			t.Errorf("query %s shares %d terms with %s, want >= %d",
				q.ID, shared, origID, want)
		}
		if len(q.Terms) > len(orig.Terms) {
			t.Errorf("query %s grew beyond its original (%d > %d terms)",
				q.ID, len(q.Terms), len(orig.Terms))
		}
	}
}

func TestGenerateNoDuplicateTermsInQuery(t *testing.T) {
	col, sys := testCollection(t)
	g, err := Generate(col, sys, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range g.Queries {
		seen := map[string]bool{}
		for _, term := range q.Terms {
			if seen[term] {
				t.Fatalf("query %s repeats term %q: %v", q.ID, term, q.Terms)
			}
			seen[term] = true
		}
	}
}

func TestGenerateRelevantDocsDerived(t *testing.T) {
	col, sys := testCollection(t)
	g, err := Generate(col, sys, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*corpus.Query{}
	for _, q := range col.Queries {
		byID[q.ID] = q
	}
	derivedWithJudgments := 0
	for _, q := range g.Queries {
		if q.ID == g.Origin[q.ID] {
			continue
		}
		if len(q.Relevant) > 0 {
			derivedWithJudgments++
		}
		orig := byID[g.Origin[q.ID]]
		// Result-distribution property: derived judgment sets should be in
		// the same ballpark as the original's (not 10× larger).
		if len(q.Relevant) > 2*len(orig.Relevant)+5 {
			t.Errorf("query %s has %d judgments vs original's %d",
				q.ID, len(q.Relevant), len(orig.Relevant))
		}
	}
	if derivedWithJudgments == 0 {
		t.Fatal("no derived query received any relevance judgments")
	}
}

func TestGenerateSharedRelevantDocs(t *testing.T) {
	// Property (a) of §6.1: queries derived from the same original ought to
	// share some relevant documents with it.
	col, sys := testCollection(t)
	g, err := Generate(col, sys, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*corpus.Query{}
	for _, q := range col.Queries {
		byID[q.ID] = q
	}
	sharing, derived := 0, 0
	for _, q := range g.Queries {
		if q.ID == g.Origin[q.ID] {
			continue
		}
		derived++
		orig := byID[g.Origin[q.ID]]
		for d := range q.Relevant {
			if orig.Relevant[d] {
				sharing++
				break
			}
		}
	}
	if derived == 0 {
		t.Fatal("no derived queries")
	}
	if float64(sharing) < 0.5*float64(derived) {
		t.Fatalf("only %d/%d derived queries share a relevant doc with their original",
			sharing, derived)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	col, sys := testCollection(t)
	g1, err := Generate(col, sys, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(col, sys, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Queries) != len(g2.Queries) {
		t.Fatal("lengths differ")
	}
	for i := range g1.Queries {
		if !reflect.DeepEqual(g1.Queries[i].Terms, g2.Queries[i].Terms) {
			t.Fatalf("query %d terms differ across identical seeds", i)
		}
		if !reflect.DeepEqual(g1.Queries[i].Relevant, g2.Queries[i].Relevant) {
			t.Fatalf("query %d judgments differ across identical seeds", i)
		}
	}
}

func TestGenerateIDsNamespaced(t *testing.T) {
	col, sys := testCollection(t)
	g, err := Generate(col, sys, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, q := range g.Queries {
		if seen[q.ID] {
			t.Fatalf("duplicate query ID %s", q.ID)
		}
		seen[q.ID] = true
		if q.ID != g.Origin[q.ID] && !strings.HasPrefix(q.ID, g.Origin[q.ID]+".") {
			t.Fatalf("derived ID %s not namespaced under %s", q.ID, g.Origin[q.ID])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	col, sys := testCollection(t)
	bad := []Config{
		{PerOriginal: -1},
		{Overlap: 1.5},
		{Overlap: -0.2},
		{TopSimilar: -3},
		{TopE: -1},
	}
	for i, cfg := range bad {
		// Force non-zero so FillDefaults doesn't mask the bad value.
		if _, err := Generate(col, sys, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestZeroPerOriginalKeepsOnlyOriginals(t *testing.T) {
	col, sys := testCollection(t)
	// PerOriginal = 0 would be replaced by the default 9; use a config where
	// the caller explicitly wants only originals by setting PerOriginal to 0
	// after defaults — verify the default applies instead.
	g, err := Generate(col, sys, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Queries) != len(col.Queries)*10 {
		t.Fatalf("default PerOriginal should yield 10× queries, got %d", len(g.Queries))
	}
}

// docids builds a DocID slice from short names.
func docids(names ...string) []index.DocID {
	out := make([]index.DocID, len(names))
	for i, n := range names {
		out[i] = index.DocID(n)
	}
	return out
}

// TestAlignJudgmentsFigure3 replays the structure of the paper's Figure 3:
// some of Q's relevant documents reappear in RL′ (pass 1, circles matched by
// closest rank), and the remainder are replaced by the RL′ documents at the
// same ranks (pass 2, crosses).
func TestAlignJudgmentsFigure3(t *testing.T) {
	// RL: d0..d9, relevant docs of Q at ranks 1, 4, 7 (d1, d4, d7).
	rl := docids("d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9")
	origRel := map[index.DocID]bool{"d1": true, "d4": true, "d7": true}
	// RL′ contains d4 at rank 0 (a shared relevant doc) plus new docs.
	rlp := docids("d4", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9")

	got := alignJudgments(origRel, rl, rlp)

	// Pass 1: d4 is relevant to Q′ and marks the closest-ranked relevant doc
	// in RL (rank 0 in RL′ → closest of {1,4,7} is rank 1, i.e. d1).
	if !got["d4"] {
		t.Fatal("shared relevant doc d4 not carried over")
	}
	// Pass 2: the unmarked relevant docs in RL (d4@4, d7@7) map to RL′ ranks
	// 4 and 7 → n4 and n7.
	if !got["n4"] || !got["n7"] {
		t.Fatalf("rank-aligned crosses missing: %v", got)
	}
	// d1 was marked in pass 1, so RL′ rank 1 (n1) must NOT become relevant.
	if got["n1"] {
		t.Fatalf("marked doc's rank wrongly produced a cross: %v", got)
	}
	if len(got) != 3 {
		t.Fatalf("judgment count = %d, want 3 (same as original): %v", len(got), got)
	}
}

// TestAlignJudgmentsPreservesCount checks the generator's fairness property:
// the derived judgment set has the same cardinality as the original's
// within-top-E judgments whenever RL′ is deep enough.
func TestAlignJudgmentsPreservesCount(t *testing.T) {
	rl := docids("a", "b", "c", "d", "e", "f", "g", "h")
	rel := map[index.DocID]bool{"b": true, "d": true, "g": true}
	rlp := docids("x0", "b", "x2", "x3", "d", "x5", "x6", "x7")
	got := alignJudgments(rel, rl, rlp)
	if len(got) != 3 {
		t.Fatalf("judgments = %v, want 3 entries", got)
	}
	if !got["b"] || !got["d"] {
		t.Fatalf("shared docs lost: %v", got)
	}
}

func TestAlignJudgmentsShortRLPrime(t *testing.T) {
	// Relevant docs whose ranks exceed RL′'s length are dropped silently
	// (their ranks "will never be returned to users").
	rl := docids("a", "b", "c", "d", "e")
	rel := map[index.DocID]bool{"e": true} // rank 4
	rlp := docids("x", "y")                // too short to align rank 4
	got := alignJudgments(rel, rl, rlp)
	if len(got) != 0 {
		t.Fatalf("judgments = %v, want none", got)
	}
}

func TestAlignJudgmentsEmptyInputs(t *testing.T) {
	if got := alignJudgments(nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty alignment = %v", got)
	}
	got := alignJudgments(map[index.DocID]bool{"a": true}, docids("a"), nil)
	if len(got) != 0 {
		t.Fatalf("no RL′: %v", got)
	}
}

// TestReplacementPicksUniformOverNeighbourPool is a seeded KS-style sanity
// check on Phase 1's distribution behaviour: a dropped term's replacement is
// drawn uniformly from its top-S Distribution-neighbour pool. Samples are
// restricted to derived queries with exactly one dropped term whose pool has
// no member colliding with the kept terms, so the expected law is exactly
// uniform over the S pool slots; the empirical CDF over pool ranks must then
// stay within a KS band of the uniform CDF. A biased RNG path (reusing the
// permutation, skewing toward pool head) fails this immediately.
func TestReplacementPicksUniformOverNeighbourPool(t *testing.T) {
	col, sys := testCollection(t)
	const S = 5
	g, err := Generate(col, sys, Config{PerOriginal: 400, Overlap: 0.7, TopSimilar: S, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*corpus.Query{}
	for _, q := range col.Queries {
		byID[q.ID] = q
	}
	counts := make([]int, S)
	samples := 0
	for _, q := range g.Queries {
		orig := byID[g.Origin[q.ID]]
		if q.ID == orig.ID {
			continue
		}
		var dropped, added []string
		inNew := map[string]bool{}
		for _, tm := range q.Terms {
			inNew[tm] = true
		}
		for _, tm := range orig.Terms {
			if !inNew[tm] {
				dropped = append(dropped, tm)
			}
		}
		origHas := map[string]bool{}
		for _, tm := range orig.Terms {
			origHas[tm] = true
		}
		for _, tm := range q.Terms {
			if !origHas[tm] {
				added = append(added, tm)
			}
		}
		if len(dropped) != 1 || len(added) != 1 {
			continue // ambiguous attribution
		}
		pool := col.Corpus.SimilarTerms(dropped[0], S)
		if len(pool) != S {
			continue
		}
		collides := false
		rank := -1
		for i, p := range pool {
			if origHas[p] && p != dropped[0] {
				collides = true
			}
			if p == added[0] {
				rank = i
			}
		}
		if collides || rank < 0 {
			continue // collision filtering skews the law; replacement outside pool impossible
		}
		counts[rank]++
		samples++
	}
	if samples < 300 {
		t.Fatalf("only %d clean samples; corpus/config no longer produce single-drop derivations", samples)
	}
	// One-sample KS test against the discrete uniform CDF. 1.63/sqrt(n) is
	// the 1% critical value; the run is seeded, so a pass is stable.
	cum, maxDev := 0.0, 0.0
	for i := 0; i < S; i++ {
		cum += float64(counts[i]) / float64(samples)
		dev := cum - float64(i+1)/float64(S)
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDev {
			maxDev = dev
		}
	}
	if limit := 1.63 / math.Sqrt(float64(samples)); maxDev > limit {
		t.Fatalf("KS statistic %.4f exceeds %.4f: pool-rank counts %v over %d samples not uniform",
			maxDev, limit, counts, samples)
	}
}

// TestDerivedSetPreservesTermDistribution checks the paper's property (b) at
// the aggregate level: replacement terms are Distribution-neighbours of the
// terms they replace, so the derived set's mean log-Distribution must stay
// close to the original set's — the generator widens the query set without
// shifting its term-importance profile.
func TestDerivedSetPreservesTermDistribution(t *testing.T) {
	col, sys := testCollection(t)
	g, err := Generate(col, sys, Config{PerOriginal: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Distribution(t) = Freq(t) × Num(t), from the documents.
	freq, num := map[string]int64{}, map[string]int64{}
	for _, d := range col.Corpus.Docs() {
		for tm, f := range d.TF {
			freq[tm] += int64(f)
			num[tm]++
		}
	}
	meanLogDist := func(qs []*corpus.Query, skipOriginals bool) float64 {
		sum, n := 0.0, 0
		for _, q := range qs {
			if skipOriginals && q.ID == g.Origin[q.ID] {
				continue
			}
			for _, tm := range q.Terms {
				if d := freq[tm] * num[tm]; d > 0 {
					sum += math.Log(float64(d))
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("no terms with positive Distribution")
		}
		return sum / float64(n)
	}
	origMean := meanLogDist(col.Queries, false)
	derivedMean := meanLogDist(g.Queries, true)
	if diff := math.Abs(derivedMean - origMean); diff > 0.35 {
		t.Fatalf("derived-set mean log-Distribution %.3f drifts %.3f from originals' %.3f",
			derivedMean, diff, origMean)
	}
}
