package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/spritedht/sprite/internal/telemetry"
)

// renderRankings runs the deployment's searcher over every test query and
// renders doc IDs plus exact score bits, so two runs can be compared byte
// for byte — a formatting difference of even one ULP fails the comparison.
func renderRankings(d *Deployment, k int) string {
	var b strings.Builder
	for _, q := range d.Env.Test {
		rl := d.SpriteSearcher()(q.Terms, k)
		b.WriteString(q.ID)
		b.WriteByte(':')
		for _, h := range rl {
			fmt.Fprintf(&b, " %s=%016x", h.Doc, math.Float64bits(h.Score))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// trainAndRender builds a deployment from cfg, runs the §6.2 training
// sequence, then measures with slept link latency. It returns the rendered
// rankings, the virtual nanoseconds the run spanned (0 under the wall
// clock), and the transport call/byte counters of the measured phase.
func trainAndRender(t *testing.T, cfg Config) (rankings string, virtualNS int64, calls, bytes int64) {
	t.Helper()
	env, err := Setup(cfg)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	dep, err := env.NewDeployment(cfg.Core)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	dep.Run(func() {
		if err := dep.InsertQueries(env.Train); err != nil {
			t.Errorf("InsertQueries: %v", err)
			return
		}
		if err := dep.ShareAll(); err != nil {
			t.Errorf("ShareAll: %v", err)
			return
		}
		if err := dep.Learn(cfg.LearningIterations); err != nil {
			t.Errorf("Learn: %v", err)
			return
		}
		dep.Sim.ResetStats()
		dep.Sim.SetSleepLatency(true)
		start := dep.Clock().Now()
		rankings = renderRankings(dep, cfg.TopK)
		if dep.Clk != nil {
			virtualNS = dep.Clock().Now().Sub(start).Nanoseconds()
		}
		dep.Sim.SetSleepLatency(false)
	})
	st := dep.Sim.Stats()
	return rankings, virtualNS, st.Calls, st.Bytes
}

// TestVirtualWallRankingTwins is the twin test of the virtual-time contract:
// on the same small ring with the same constant link delay, rankings under
// the virtual clock must be byte-identical to rankings under real slept
// latency. A constant (lo == hi) delay draws no transport randomness, so the
// only degree of freedom between the modes is the clock itself.
func TestVirtualWallRankingTwins(t *testing.T) {
	cfg := tiny()
	cfg.LinkDelay = 200 * time.Microsecond
	cfg.Core.Parallelism = 4

	cfg.VirtualTime = false
	wall, _, wallCalls, wallBytes := trainAndRender(t, cfg)

	cfg.VirtualTime = true
	virt, virtNS, virtCalls, virtBytes := trainAndRender(t, cfg)

	if wall == "" || wall != virt {
		t.Errorf("virtual-time rankings differ from sleeping-latency rankings:\nwall:\n%s\nvirtual:\n%s", wall, virt)
	}
	if wallCalls != virtCalls || wallBytes != virtBytes {
		t.Errorf("traffic moved with the clock: wall %d/%d virtual %d/%d",
			wallCalls, wallBytes, virtCalls, virtBytes)
	}
	if virtNS <= 0 {
		t.Errorf("virtual run slept no virtual time (%d ns)", virtNS)
	}
}

// TestVirtualDeterminismAcrossRuns is the determinism regression: two
// virtual-time runs with the same seed at Parallelism 8 must agree bit for
// bit on rankings, on the virtual timeline (total elapsed virtual time), and
// on the deterministic part of the telemetry snapshot — counters, gauges,
// histograms. Gauge peaks depend on how the host overlaps goroutines, so the
// fan-out peak only has to exist.
func TestVirtualDeterminismAcrossRuns(t *testing.T) {
	run := func() (string, int64, string) {
		cfg := tiny()
		cfg.LinkDelay = 150 * time.Microsecond
		cfg.Core.Parallelism = 8
		cfg.VirtualTime = true
		cfg.Telemetry = telemetry.NewRegistry()
		rankings, virtNS, _, _ := trainAndRender(t, cfg)
		snap := cfg.Telemetry.Snapshot()
		if peak := snap.GaugePeaks["sprite.fanout.inflight"]; peak < 1 {
			t.Errorf("fan-out in-flight peak = %d, want >= 1", peak)
		}
		js, err := json.Marshal(snap.Deterministic())
		if err != nil {
			t.Fatalf("marshal snapshot: %v", err)
		}
		return rankings, virtNS, string(js)
	}
	r1, t1, s1 := run()
	r2, t2, s2 := run()
	if r1 != r2 {
		t.Errorf("rankings diverged across identical runs:\nrun1:\n%s\nrun2:\n%s", r1, r2)
	}
	if t1 != t2 {
		t.Errorf("virtual timeline diverged: run1 %d ns, run2 %d ns", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("telemetry snapshots diverged:\nrun1: %s\nrun2: %s", s1, s2)
	}
	if t1 <= 0 {
		t.Errorf("no virtual time elapsed (%d ns)", t1)
	}
}

// TestRunScaleSmoke exercises the scale sweep end to end at unit-test size:
// one small ring, a short Zipf stream. It pins the structural contract —
// exact percentile ordering, positive routing cost, the virtual clock having
// actually advanced — without asserting machine-dependent wall numbers.
func TestRunScaleSmoke(t *testing.T) {
	cfg := tiny()
	res, err := RunScale(cfg, []int{64}, 2000, 0.5, 500*time.Microsecond)
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	if len(res.Arms) != 1 {
		t.Fatalf("arm count = %d, want 1", len(res.Arms))
	}
	a := res.Arms[0]
	if a.Peers != 64 || a.Queries != 2000 {
		t.Fatalf("arm shape wrong: %+v", a)
	}
	if a.P50US <= 0 || a.P95US < a.P50US || a.P99US < a.P95US {
		t.Errorf("degenerate percentiles: %+v", a)
	}
	if a.MsgsPerQuery <= 0 || a.BytesPerQuery <= 0 {
		t.Errorf("no routing cost recorded: %+v", a)
	}
	if a.VirtualSecs <= 0 {
		t.Errorf("virtual clock did not advance: %+v", a)
	}
	if a.Quality.Precision <= 0 || a.Quality.Recall <= 0 {
		t.Errorf("degenerate quality: %+v", a)
	}
	// A refresh cycle is one round per stored finger plus the wrap, and
	// every round but the wrap is a lookup.
	if a.Fingers <= 0 || a.FixRounds < a.Fingers+1 || a.FixMsgs <= 0 {
		t.Errorf("finger table cost not recorded: %+v", a)
	}
	if got := len(res.Report().Rows); got != 1 {
		t.Errorf("report has %d rows, want 1", got)
	}
}

// TestRunScaleQualityRingInvariant pins the property the sweep's quality
// column documents: precision and recall must not move with ring size,
// because a term's search state lands with the term's owner wherever the
// ring boundaries fall.
func TestRunScaleQualityRingInvariant(t *testing.T) {
	cfg := tiny()
	res, err := RunScale(cfg, []int{32, 128}, 500, 0.5, 500*time.Microsecond)
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("arm count = %d, want 2", len(res.Arms))
	}
	if res.Arms[0].Quality != res.Arms[1].Quality {
		t.Errorf("quality moved with ring size: %+v vs %+v",
			res.Arms[0].Quality, res.Arms[1].Quality)
	}
}
