package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/simnet"
)

// The paper asserts that Algorithm 1 — which keeps only (max qScore,
// cumulative QF) per term and folds in each iteration's incremental query
// set — produces exactly the rank list of the naive scheme that stores and
// reprocesses the entire query history every iteration ("the results of
// Algorithm 1 is equivalent to the naive scheme"). These tests make that
// claim executable: a reference implementation of the naive scheme is run
// against the same query stream and must agree with the incremental
// statistics and the resulting selection.

// naiveScore recomputes Score(t, D) from the full query history.
func naiveScore(history [][]string, d *corpus.Document, term string) float64 {
	qf := 0
	maxQS := 0.0
	for _, q := range history {
		if !containsTerm(q, term) {
			continue
		}
		qf++
		if qs := qScore(q, d); qs > maxQS {
			maxQS = qs
		}
	}
	if qf == 0 {
		return 0
	}
	return maxQS * math.Log10(float64(qf))
}

// foldIncremental replays the stream in batches through the same folding
// logic learnDoc uses (via a docState).
func foldIncremental(batches [][][]string, d *corpus.Document) map[string]*termStat {
	stats := make(map[string]*termStat)
	for _, batch := range batches {
		for _, q := range batch {
			qs := qScore(q, d)
			for _, t := range distinctTerms(q) {
				if !d.Contains(t) {
					continue
				}
				ts := stats[t]
				if ts == nil {
					ts = &termStat{}
					stats[t] = ts
				}
				ts.qf++
				if qs > ts.maxQS {
					ts.maxQS = qs
				}
			}
		}
	}
	return stats
}

func TestAlgorithm1EquivalentToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vocab := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	d := doc("D", map[string]int{
		"t0": 9, "t1": 7, "t2": 5, "t3": 3, "t4": 2, "t5": 1,
	})

	// A random query stream split into random batch boundaries (iterations).
	var history [][]string
	var batches [][][]string
	var current [][]string
	for i := 0; i < 400; i++ {
		qlen := 1 + rng.Intn(4)
		q := make([]string, 0, qlen)
		seen := map[string]bool{}
		for len(q) < qlen {
			term := vocab[rng.Intn(len(vocab))]
			if !seen[term] {
				seen[term] = true
				q = append(q, term)
			}
		}
		history = append(history, q)
		current = append(current, q)
		if rng.Intn(10) == 0 {
			batches = append(batches, current)
			current = nil
		}
	}
	if len(current) > 0 {
		batches = append(batches, current)
	}

	stats := foldIncremental(batches, d)
	for _, term := range vocab {
		want := naiveScore(history, d, term)
		got := 0.0
		if ts, ok := stats[term]; ok {
			got = ts.score(ScoreQScoreLogQF)
		}
		if !d.Contains(term) {
			// Terms outside the document must never acquire statistics.
			if _, ok := stats[term]; ok {
				t.Errorf("term %s not in doc but has stats", term)
			}
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("term %s: incremental score %v != naive score %v", term, got, want)
		}
	}
}

// TestAlgorithm1SelectionEquivalence runs the check end-to-end through the
// real network: the terms selected by the incremental learner over several
// iterations equal the top-T terms a naive full-history scorer would pick.
func TestAlgorithm1SelectionEquivalence(t *testing.T) {
	n := testNetwork(t, 8, Config{InitialTerms: 2, TermsPerIteration: 10, MaxIndexTerms: 12})
	d := doc("D", map[string]int{
		"alpha": 10, "beta": 8, "gamma": 6, "delta": 4, "eps": 2, "zeta": 1,
	})
	if err := n.Share("p0", d); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	inDoc := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta"}
	var history [][]string
	for iter := 0; iter < 4; iter++ {
		for i := 0; i < 25; i++ {
			qlen := 1 + rng.Intn(3)
			q := []string{}
			seen := map[string]bool{}
			for len(q) < qlen {
				term := inDoc[rng.Intn(len(inDoc))]
				if !seen[term] {
					seen[term] = true
					q = append(q, term)
				}
			}
			// Every query must contain at least one currently indexed term
			// to be visible; guarantee it by adding alpha (always indexed —
			// it is the top frequency pick and heavily queried).
			if !containsTerm(q, "alpha") {
				q = append(q, "alpha")
			}
			history = append(history, q)
			if err := n.InsertQuery("p3", q); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.LearnAllCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Naive reference: rank all doc terms by full-history score.
	type scored struct {
		term  string
		score float64
	}
	var naive []scored
	for _, term := range inDoc {
		// Deduplicate history as the peer history does (distinct keyword
		// sets).
		seen := map[string]bool{}
		var dedup [][]string
		for _, q := range history {
			key := canonicalQuery(q)
			if !seen[key] {
				seen[key] = true
				dedup = append(dedup, q)
			}
		}
		naive = append(naive, scored{term, naiveScore(dedup, d, term)})
	}
	sort.Slice(naive, func(i, j int) bool {
		if naive[i].score != naive[j].score {
			return naive[i].score > naive[j].score
		}
		return naive[i].term < naive[j].term
	})

	indexed, _ := n.IndexedTerms("D")
	idx := map[string]bool{}
	for _, term := range indexed {
		idx[term] = true
	}
	// Every naive top scorer with a positive score must be indexed (budget
	// is ample: cap 12 > 6 doc terms).
	for _, s := range naive {
		if s.score > 0 && !idx[s.term] {
			t.Errorf("naive top term %s (score %.3f) not selected by incremental learner (indexed: %v)",
				s.term, s.score, indexed)
		}
	}
}

// TestPollDedupAtScale verifies that across a full learning sweep, each
// distinct query reaches the owner exactly once even when it contains many
// of the document's index terms.
func TestPollDedupAtScale(t *testing.T) {
	n := testNetwork(t, 12, Config{InitialTerms: 5, TermsPerIteration: 5, MaxIndexTerms: 30})
	tf := map[string]int{}
	var vocab []string
	for i := 0; i < 10; i++ {
		term := fmt.Sprintf("w%02d", i)
		tf[term] = 10 - i
		vocab = append(vocab, term)
	}
	if err := n.Share("p0", doc("D", tf)); err != nil {
		t.Fatal(err)
	}
	// Queries with heavy overlap with the indexed set; some keyword sets
	// repeat, and each issuance must be delivered exactly once.
	issued := map[string]int{}
	for i := 0; i < 20; i++ {
		q := []string{vocab[i%5], vocab[(i+1)%5], vocab[5+i%5]}
		issued[canonicalQuery(q)]++
		if err := n.InsertQuery("p2", q); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := n.Owner("D")
	st := p.owned["D"]

	// Count deliveries per keyword set across a manual poll sweep of all
	// indexed terms with fresh watermarks.
	docTerms := sortedIndexedTerms(st)
	delivered := map[string]int{}
	for _, term := range docTerms {
		ref, _, err := p.node.Lookup(hashOfTerm(term))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := n.Ring().Net().Call(p.Addr(), ref.Addr, simnet.Message{
			Type:    msgPoll,
			Payload: pollReq{Docs: []pollDoc{{Doc: "D", DocTerms: docTerms, Terms: []pollTerm{{Term: term}}}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range reply.Payload.(pollResp).Items[0].Queries {
			delivered[canonicalQuery(q)]++
		}
	}
	if len(delivered) == 0 {
		t.Fatal("no queries delivered")
	}
	// Every issuance of every keyword set is delivered exactly once — no
	// loss, and crucially no duplicate delivery by multiple indexing peers.
	for key, want := range issued {
		if got := delivered[key]; got != want {
			t.Fatalf("query %q delivered %d times, issued %d times", key, got, want)
		}
	}
}
