package eval

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
)

// The postings storage benchmark: the block-compressed index (index.Inverted)
// against the uncompressed reference (index.Plain) on identical synthetic
// workloads, across corpus sizes up to a million documents. Three questions,
// one per column group:
//
//   - Space: bytes per stored posting, in memory and on the wire. The plain
//     representation pays Go's struct-and-string overhead (~65 B/posting);
//     blocks pay front-coded doc IDs, an owner dictionary, and packed
//     tf/doclen varints.
//   - Share throughput: documents indexed per second through each store's Add
//     path (both stores take the identical pre-built posting sequence, so the
//     loop measures storage cost alone).
//   - Query latency: exact p50/p95/p99 over a topical Zipf query stream
//     scored the way SPRITE's peers score. The ranked lists of the two arms
//     are hashed and compared — compression must be invisible to retrieval,
//     bit for bit.
//
// Corpora are drawn from corpus.DocStream, so the 1M-doc tier never holds
// the collection in memory; the plain index itself is only built up to
// PlainMaxDocs (its footprint at larger tiers is computed analytically from
// the same postings, which is exact — MemSize is a per-posting function).

// PostingsArm is one store's measurements at one corpus size.
type PostingsArm struct {
	// Built reports whether this arm was actually constructed and measured;
	// when false (plain above PlainMaxDocs) only the footprint columns are
	// populated, computed from the identical posting sequence.
	Built bool
	// BuildMS is the wall time of the timed Add loop; DocsPerSec the share
	// throughput derived from it.
	BuildMS    int64
	DocsPerSec float64
	// MemBytes is the store's resident posting footprint: encoded block bytes
	// for the compressed arm, Σ MemSize for plain. BytesPerPosting divides by
	// the posting count.
	MemBytes        int64
	BytesPerPosting float64
	// WireBytes is what shipping every list once would cost: encoded blocks
	// as-is for compressed, per-posting varint frames for plain.
	WireBytes int64
	// Query latency order statistics (nanoseconds, wall clock).
	MeanNS float64
	P50NS  int64
	P95NS  int64
	P99NS  int64
	// RankHash fingerprints every query's ranked list (doc IDs and exact
	// score bits, in rank order).
	RankHash string
}

// PostingsTier is one corpus size of the sweep.
type PostingsTier struct {
	Docs     int
	Topics   int
	Terms    int
	Postings int
	Blocks   int
	Comp     PostingsArm
	Plain    PostingsArm
	// Ratio is plain bytes/posting over compressed bytes/posting — the
	// compression headline.
	Ratio float64
	// RankingsMatch reports that both arms produced identical rank hashes
	// over the full query stream (only meaningful when Plain.Built).
	RankingsMatch bool
	WallMS        int64
}

// PostingsResult is the storage sweep across corpus sizes.
type PostingsResult struct {
	Tiers        []PostingsTier
	TermsPerDoc  int
	Queries      int
	QueryLen     int
	TopK         int
	PlainMaxDocs int
	Seed         int64
}

// postingsOp is one pre-built Add call, identical for both arms.
type postingsOp struct {
	term string
	p    index.Posting
}

// RunPostings runs the sweep. Defaults: tiers {10k, 100k, 1M}, 2000 queries
// of 4 terms per tier, top-8 index terms per document, plain arm built up to
// 100k docs. Topic count scales with the corpus (≈12 per 10k docs) so
// vocabulary growth tracks corpus growth the way real collections behave.
func RunPostings(tiers []int, queries int, plainMax int, seed int64) (*PostingsResult, error) {
	if len(tiers) == 0 {
		tiers = []int{10000, 100000, 1000000}
	}
	if queries <= 0 {
		queries = 2000
	}
	if plainMax <= 0 {
		plainMax = 100000
	}
	res := &PostingsResult{
		TermsPerDoc:  8,
		Queries:      queries,
		QueryLen:     4,
		TopK:         10,
		PlainMaxDocs: plainMax,
		Seed:         seed,
	}
	// The sweep's heap is the index under test; keep the collector from
	// cycling over it mid-measurement (same trade RunScale makes).
	oldGC := debug.SetGCPercent(300)
	defer debug.SetGCPercent(oldGC)
	for _, docs := range tiers {
		tier, err := runPostingsTier(docs, res)
		if err != nil {
			return nil, fmt.Errorf("eval: postings tier %d docs: %w", docs, err)
		}
		res.Tiers = append(res.Tiers, tier)
		runtime.GC()
	}
	return res, nil
}

func runPostingsTier(docs int, res *PostingsResult) (PostingsTier, error) {
	wallStart := time.Now()
	topics := 12 * (docs / 10000)
	if topics < 12 {
		topics = 12
	}
	cfg := corpus.SynthConfig{NumDocs: docs, NumTopics: topics, Seed: res.Seed}
	ds, err := corpus.NewDocStream(cfg)
	if err != nil {
		return PostingsTier{}, err
	}

	// Synthetic owner peers: the posting payload a real share would carry.
	owners := make([]string, 64)
	for i := range owners {
		owners[i] = fmt.Sprintf("peer%02d", i)
	}

	comp := index.NewInverted()
	plain := index.NewPlain()
	buildPlain := docs <= res.PlainMaxDocs
	tier := PostingsTier{Docs: docs, Topics: topics}

	// Build in batches: generate a batch untimed, then run each arm's timed
	// Add loop over the identical ops, so docs/s measures the store and not
	// the generator. The analytic plain footprint accumulates here too.
	const batch = 10000
	ops := make([]postingsOp, 0, batch*res.TermsPerDoc)
	var compNS, plainNS int64
	var plainMem, plainWire int64
	docCount := 0
	for {
		ops = ops[:0]
		for len(ops) < batch*res.TermsPerDoc {
			doc, _, ok := ds.Next()
			if !ok {
				break
			}
			owner := owners[docCount%len(owners)]
			for _, term := range doc.TopTerms(res.TermsPerDoc) {
				p := index.Posting{Doc: doc.ID, Owner: owner, Freq: doc.TF[term], DocLen: doc.Length}
				ops = append(ops, postingsOp{term: term, p: p})
				plainMem += int64(p.MemSize())
				plainWire += int64(p.WireSize())
			}
			docCount++
		}
		if len(ops) == 0 {
			break
		}
		start := time.Now()
		for _, op := range ops {
			comp.Add(op.term, op.p)
		}
		compNS += time.Since(start).Nanoseconds()
		if buildPlain {
			start = time.Now()
			for _, op := range ops {
				plain.Add(op.term, op.p)
			}
			plainNS += time.Since(start).Nanoseconds()
		}
	}

	st := comp.Stats()
	tier.Terms = st.Terms
	tier.Postings = st.Postings
	tier.Blocks = st.Blocks
	tier.Comp = PostingsArm{
		Built:           true,
		BuildMS:         compNS / 1e6,
		DocsPerSec:      float64(docCount) / (float64(compNS) / 1e9),
		MemBytes:        int64(st.EncodedBytes),
		BytesPerPosting: st.BytesPerPosting(),
		WireBytes:       int64(st.EncodedBytes),
	}
	tier.Plain = PostingsArm{
		Built:           buildPlain,
		MemBytes:        plainMem,
		BytesPerPosting: float64(plainMem) / float64(max(1, tier.Postings)),
		WireBytes:       plainWire,
	}
	if buildPlain {
		tier.Plain.BuildMS = plainNS / 1e6
		tier.Plain.DocsPerSec = float64(docCount) / (float64(plainNS) / 1e9)
	}
	if tier.Comp.BytesPerPosting > 0 {
		tier.Ratio = tier.Plain.BytesPerPosting / tier.Comp.BytesPerPosting
	}

	// The query stream: identical topical Zipf queries for both arms.
	qs := make([][]string, res.Queries)
	for i := range qs {
		qs[i] = ds.SampleQuery(res.QueryLen)
	}
	runtime.GC() // measure queries on a settled heap
	meas := func(st index.Store, compressed bool) (latencySummary, string) {
		h := fnv.New64a()
		samples := make([]int64, 0, len(qs))
		var buf [8]byte
		for _, q := range qs {
			start := time.Now()
			rl := postingsQuery(st, compressed, q, docs, res.TopK)
			samples = append(samples, time.Since(start).Nanoseconds())
			for _, hit := range rl {
				h.Write([]byte(hit.Doc))
				bits := math.Float64bits(hit.Score)
				for i := 0; i < 8; i++ {
					buf[i] = byte(bits >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
		return summarize(samples), fmt.Sprintf("%016x", h.Sum64())
	}
	lat, hash := meas(comp, true)
	tier.Comp.MeanNS, tier.Comp.P50NS, tier.Comp.P95NS, tier.Comp.P99NS = lat.Mean, lat.P50, lat.P95, lat.P99
	tier.Comp.RankHash = hash
	if buildPlain {
		lat, hash = meas(plain, false)
		tier.Plain.MeanNS, tier.Plain.P50NS, tier.Plain.P95NS, tier.Plain.P99NS = lat.Mean, lat.P50, lat.P95, lat.P99
		tier.Plain.RankHash = hash
		tier.RankingsMatch = tier.Plain.RankHash == tier.Comp.RankHash
	}
	tier.WallMS = time.Since(wallStart).Milliseconds()
	return tier, nil
}

// postingsQuery scores one query against a store exactly the way SPRITE's
// querying peers do (§4): TF·IDF weights with the store's document frequency
// as n'_k, terms folded in first-occurrence order, Lee et al. similarity.
// The compressed arm streams straight off the block cursor; the plain arm
// walks its slice — each store's natural read path.
func postingsQuery(st index.Store, compressed bool, terms []string, n, k int) ir.RankedList {
	qtf := make(map[string]int, len(terms))
	for _, t := range terms {
		qtf[t]++
	}
	if compressed {
		// The compressed arm queries through the streaming path: a k-way
		// merge over the term cursors, no accumulator map, no decoded
		// postings. Bit-identical to the accumulator fold below (see
		// ir.MergeTopK).
		mts := make([]ir.MergeTerm, 0, len(terms))
		seen := make(map[string]bool, len(terms))
		for _, t := range terms {
			if seen[t] {
				continue
			}
			seen[t] = true
			df := st.DocFreq(t)
			if df == 0 {
				continue
			}
			mts = append(mts, ir.MergeTerm{
				Cursor: st.(*index.Inverted).Cursor(t),
				WQ:     ir.QueryWeight(qtf[t], len(terms), n, df),
				N:      n,
				DF:     df,
			})
		}
		return ir.MergeTopK(mts, k)
	}
	acc := ir.NewAccumulator()
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		df := st.DocFreq(t)
		if df == 0 {
			continue
		}
		wq := ir.QueryWeight(qtf[t], len(terms), n, df)
		for p := range st.All(t) {
			acc.Accumulate(p.Doc, wq*ir.Weight(p.NormFreq(), n, df), p.DocLen)
		}
	}
	return acc.RankedTop(k)
}

// Table renders the sweep.
func (r *PostingsResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Postings storage: compressed blocks vs plain slices (%d terms/doc, %d queries x %d terms, top-%d)\n",
		r.TermsPerDoc, r.Queries, r.QueryLen, r.TopK)
	fmt.Fprintf(&b, "%-9s %-7s %-9s %-8s %-6s %-10s %-8s %-9s %-9s %-9s %-7s %-9s %-8s\n",
		"docs", "store", "postings", "blocks", "B/post", "ratio", "mem_MB", "docs/s", "p50_us", "p95_us", "p99_us", "rankings", "wall_ms")
	for _, t := range r.Tiers {
		for _, arm := range []struct {
			name string
			a    PostingsArm
		}{{"comp", t.Comp}, {"plain", t.Plain}} {
			match := "-"
			if t.Plain.Built {
				if t.RankingsMatch {
					match = "equal"
				} else {
					match = "DIFFER"
				}
			}
			if !arm.a.Built {
				fmt.Fprintf(&b, "%-9d %-7s %-9d %-8s %-6.1f %-10s (not built above %d docs; footprint analytic)\n",
					t.Docs, arm.name, t.Postings, "-", arm.a.BytesPerPosting, "-", r.PlainMaxDocs)
				continue
			}
			blocks := "-"
			ratio := "-"
			if arm.name == "comp" {
				blocks = fmt.Sprint(t.Blocks)
				ratio = fmt.Sprintf("%.1fx", t.Ratio)
			}
			fmt.Fprintf(&b, "%-9d %-7s %-9d %-8s %-6.1f %-10s %-8.1f %-9.0f %-9.1f %-9.1f %-7.1f %-9s %-8d\n",
				t.Docs, arm.name, t.Postings, blocks, arm.a.BytesPerPosting, ratio,
				float64(arm.a.MemBytes)/(1<<20), arm.a.DocsPerSec,
				float64(arm.a.P50NS)/1e3, float64(arm.a.P95NS)/1e3, float64(arm.a.P99NS)/1e3,
				match, t.WallMS)
		}
	}
	return b.String()
}

// CSV renders two rows (one per store) per tier.
func (r *PostingsResult) CSV() string {
	rows := make([][]string, 0, 2*len(r.Tiers))
	for _, t := range r.Tiers {
		for _, arm := range []struct {
			name string
			a    PostingsArm
		}{{"compressed", t.Comp}, {"plain", t.Plain}} {
			match := ""
			if t.Plain.Built {
				match = fmt.Sprint(t.RankingsMatch)
			}
			rows = append(rows, []string{
				fmt.Sprint(t.Docs), arm.name, fmt.Sprint(arm.a.Built),
				fmt.Sprint(t.Topics), fmt.Sprint(t.Terms), fmt.Sprint(t.Postings), fmt.Sprint(t.Blocks),
				fmt.Sprintf("%.2f", arm.a.BytesPerPosting), fmt.Sprintf("%.2f", t.Ratio),
				fmt.Sprint(arm.a.MemBytes), fmt.Sprint(arm.a.WireBytes),
				fmt.Sprint(arm.a.BuildMS), fmt.Sprintf("%.0f", arm.a.DocsPerSec),
				fmt.Sprintf("%.0f", arm.a.MeanNS), fmt.Sprint(arm.a.P50NS), fmt.Sprint(arm.a.P95NS), fmt.Sprint(arm.a.P99NS),
				arm.a.RankHash, match, fmt.Sprint(t.WallMS),
			})
		}
	}
	return csvRows("docs,store,built,topics,terms,postings,blocks,bytes_per_posting,ratio,mem_bytes,wire_bytes,build_ms,docs_per_sec,mean_ns,p50_ns,p95_ns,p99_ns,rank_hash,rankings_match,wall_ms", rows)
}
