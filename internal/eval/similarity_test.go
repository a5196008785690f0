package eval

import "testing"

// TestRunSimilaritySmoke exercises the similarity benchmark end to end at
// unit-test size and pins its structural contract: both arms answer every
// query, the flooding arm bills one scan per remote peer, the routed arm
// stays under it, and recall against the exact oracle is sane for both.
func TestRunSimilaritySmoke(t *testing.T) {
	cfg := tiny()
	res, err := RunSimilarity(cfg, []int{300}, 32, 10)
	if err != nil {
		t.Fatalf("RunSimilarity: %v", err)
	}
	if len(res.Tiers) != 1 {
		t.Fatalf("tier count = %d, want 1", len(res.Tiers))
	}
	tier := res.Tiers[0]
	if tier.Docs != 300 || tier.Peers != 32 || tier.Queries != 10 {
		t.Fatalf("tier shape wrong: %+v", tier)
	}
	// One sketch scan per remote peer: the issuer's self-scan is free.
	if tier.FloodMsgs != 31 {
		t.Errorf("flood msgs/query = %v, want 31", tier.FloodMsgs)
	}
	// The routed arm's bill is bounded by its parts: route-term lookups plus
	// at most Refine term-vector fetches per query. (At this toy scale the
	// flood arm is cheaper — the advantage is a property of large networks,
	// pinned by BENCH_similarity.json, not of 32 peers.)
	if tier.RoutedMsgs <= 0 {
		t.Errorf("routed msgs/query = %v, want > 0", tier.RoutedMsgs)
	}
	if ratio := tier.FloodMsgs / tier.RoutedMsgs; tier.MsgAdvantage != ratio {
		t.Errorf("advantage = %v, want FloodMsgs/RoutedMsgs = %v", tier.MsgAdvantage, ratio)
	}
	// The refined routed arm must not trail the pure-sketch flood arm, and
	// both must retrieve something real.
	if tier.RoutedRecall <= 0 || tier.FloodRecall <= 0 {
		t.Errorf("degenerate recall: routed %v flood %v", tier.RoutedRecall, tier.FloodRecall)
	}
	if tier.RoutedRecall < tier.FloodRecall {
		t.Errorf("refined routed recall %v below pure-sketch flood recall %v",
			tier.RoutedRecall, tier.FloodRecall)
	}
	if got := len(res.Report().Rows); got != 1 {
		t.Errorf("report has %d rows, want 1", got)
	}
}
