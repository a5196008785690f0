package eval

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/sketch"
)

// TestSimilarityTwins is the determinism regression for the similarity path:
// the same trained deployment queried for the same documents must produce
// bit-identical ranked lists (doc IDs and exact score bits), identical
// per-peer history multisets, and — within one cache setting, where the
// message pattern is defined — identical transport call/byte counters, across
// Parallelism {1, 8} × postings cache {off, on} × {wall, virtual} clock.
// Rankings and history must additionally agree ACROSS cache settings: the
// cache is a transparency layer, never a semantic one.
func TestSimilarityTwins(t *testing.T) {
	type twin struct {
		rankings string
		history  map[simnet.Addr]map[string]int
		calls    int64
		bytes    int64
	}
	run := func(par int, cache, virtual bool) twin {
		cfg := tiny()
		cfg.VirtualTime = virtual
		cfg.Core.Parallelism = par
		cfg.Core.Sketch = sketch.Config{Enabled: true, Dims: 128, RouteTerms: 4, Seed: 7, Refine: 8}
		if cache {
			cfg.Core.Cache = core.CacheConfig{PostingsEntries: 256, PostingsTTL: 1e15}
		}
		env, err := Setup(cfg)
		if err != nil {
			t.Fatalf("Setup: %v", err)
		}
		dep, err := env.NewDeployment(cfg.Core)
		if err != nil {
			t.Fatalf("NewDeployment: %v", err)
		}
		var tw twin
		dep.Run(func() {
			if err := dep.InsertQueries(env.Train); err != nil {
				t.Errorf("InsertQueries: %v", err)
				return
			}
			if err := dep.ShareAll(); err != nil {
				t.Errorf("ShareAll: %v", err)
				return
			}
			if err := dep.Learn(1); err != nil {
				t.Errorf("Learn: %v", err)
				return
			}
			dep.Sim.ResetStats()
			docs := dep.Env.Col.Corpus.Docs()
			var b strings.Builder
			for i := 0; i < 12; i++ {
				q := docs[(i*7)%len(docs)].ID
				rl, err := dep.Net.SearchSimilarCtx(context.Background(), dep.nextIssuer(), q, 5)
				if err != nil {
					t.Errorf("SearchSimilarCtx(%s): %v", q, err)
					return
				}
				b.WriteString(string(q))
				b.WriteByte(':')
				for _, h := range rl {
					fmt.Fprintf(&b, " %s=%016x", h.Doc, math.Float64bits(h.Score))
				}
				b.WriteByte('\n')
			}
			tw.rankings = b.String()
		})
		st := dep.Sim.Stats()
		tw.calls, tw.bytes = st.Calls, st.Bytes
		tw.history = dep.Net.HistoryMultiset()
		return tw
	}

	ref := map[bool]twin{}
	for _, cache := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			for _, virtual := range []bool{false, true} {
				got := run(par, cache, virtual)
				if got.rankings == "" {
					t.Fatalf("empty rankings (par=%d cache=%v virtual=%v)", par, cache, virtual)
				}
				r, ok := ref[cache]
				if !ok {
					ref[cache] = got
					continue
				}
				if got.rankings != r.rankings {
					t.Errorf("rankings diverged (par=%d cache=%v virtual=%v):\n got:\n%s\nwant:\n%s",
						par, cache, virtual, got.rankings, r.rankings)
				}
				if !reflect.DeepEqual(got.history, r.history) {
					t.Errorf("history multisets diverged (par=%d cache=%v virtual=%v)", par, cache, virtual)
				}
				if got.calls != r.calls || got.bytes != r.bytes {
					t.Errorf("traffic diverged (par=%d cache=%v virtual=%v): %d/%d vs %d/%d",
						par, cache, virtual, got.calls, got.bytes, r.calls, r.bytes)
				}
			}
		}
	}
	if ref[false].rankings != ref[true].rankings {
		t.Errorf("cache changed rankings:\noff:\n%s\non:\n%s", ref[false].rankings, ref[true].rankings)
	}
	if !reflect.DeepEqual(ref[false].history, ref[true].history) {
		t.Errorf("cache changed history multisets:\noff: %v\non: %v", ref[false].history, ref[true].history)
	}
}
