package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {91, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// The sampler must follow 1/rank^slope: the top rank's share is known in
// closed form, and the draw sequence is a function of the rng alone.
func TestZipfSampler(t *testing.T) {
	const n, draws = 100, 200000
	z := newZipf(n, zipfSlope)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.draw(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	total := 0.0
	for r := 1; r <= n; r++ {
		total += 1 / math.Sqrt(float64(r))
	}
	for _, r := range []int{0, 3, 24, 99} {
		want := 1 / math.Sqrt(float64(r+1)) / total
		got := float64(counts[r]) / draws
		if math.Abs(got-want) > 0.15*want+0.001 {
			t.Errorf("rank %d drawn with frequency %.4f, want about %.4f", r, got, want)
		}
	}
}

func TestOperationStreamIsAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) []byte { return opsBytes(genOps(seed, 5000, 300, 64, 1000, 50)) }
	if !bytes.Equal(gen(1), gen(1)) {
		t.Error("same seed, different streams")
	}
	if bytes.Equal(gen(1), gen(2)) {
		t.Error("different seeds, same stream")
	}
	// The write cycle is failure-free only in this exact order.
	writes := 0
	for _, o := range genOps(3, 600, 10, 4, 7, 50) {
		if o.kind == opQuery {
			continue
		}
		if want := opUnshare + opKind(writes%3); o.kind != want || int(o.arg) != writes/3%7 {
			t.Fatalf("write %d is kind %d on doc %d", writes, o.kind, o.arg)
		}
		writes++
	}
	if writes != 12 {
		t.Errorf("%d writes for 600 queries at one per 50", writes)
	}
}

// A machine whose kernel reads a half slower, and whose slices slow down by
// that swing to the power calibSlope, must read the same once calibrated;
// one disturbed slice and a short last one must not move the medians.
func TestCalibratedTakesTheMachineOut(t *testing.T) {
	pass := func(kernel float64) *phase {
		p := &phase{}
		slow := math.Pow(kernel, calibSlope)
		for i := 0; i < 9; i++ {
			p.Slices = append(p.Slices, slice{
				Queries: 1000,
				Wall:    time.Duration(slow * float64(100*time.Millisecond)),
				P50:     int64(slow * 80e3),
				P90:     int64(slow * 150e3),
				K:       time.Duration(kernel * float64(calibRef)),
			})
		}
		p.Slices[4].Wall *= 3 // a burst
		p.Slices = append(p.Slices, slice{Queries: 10, Wall: time.Second, P50: 1, P90: 1, K: calibRef})
		return p
	}
	for _, kernel := range []float64{1, 1.5} {
		qps, p50, p90 := pass(kernel).calibrated()
		for _, c := range []struct{ got, want float64 }{{qps, 10000}, {p50, 80}, {p90, 150}} {
			if math.Abs(c.got-c.want) > 1e-3*c.want {
				t.Errorf("kernel %.1fx slow: calibrated %v, want %v", kernel, c.got, c.want)
			}
		}
	}
}

func TestSliceOps(t *testing.T) {
	for _, s := range specs {
		for _, n := range []int{100, 1000, 40000, 100000} {
			per := s.sliceOps(n)
			unit := max(s.Clients, 1)
			if s.WriteEvery > 0 {
				unit = 3 * (s.WriteEvery + 1)
			}
			if per < 1 || per%unit != 0 || (unit < minSliceOps && per < minSliceOps-unit) {
				t.Errorf("%s: %d operations are cut into slices of %d (unit %d)", s.Name, n, per, unit)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	iv := []interval{
		{-1, 0, 100}, // root
		{0, 10, 30},  // child
		{0, 20, 50},  // sibling overlapping the first: union is [10,50)
		{0, 60, 120}, // child that outlives the root: clipped to [60,100)
		{1, 12, 18},  // grandchild, nested in the first child
		{1, 18, 30},  // second grandchild, adjacent
	}
	want := []int64{100 - 40 - 40, 20 - 6 - 12, 30, 60, 6, 12}
	if got := selfTimes(iv); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// A stack of properly nested spans telescopes: self times sum to the root.
	tr := newTracer(nil)
	root := tr.begin("query")
	for i := 0; i < 3; i++ {
		rpc := tr.begin("rpc:chord.next_hop")
		h := tr.begin("handle:chord.next_hop")
		tr.end(h)
		tr.end(rpc)
	}
	tr.end(root)
	agg, kept := tr.take()
	var self int64
	for _, a := range agg {
		self += a.WallSelf
	}
	if self != agg["query"].Wall || agg["rpc:chord.next_hop"].N != 3 || len(kept) != 1 || len(kept[0]) != 7 {
		t.Errorf("self times %d vs root %d; aggregates %v", self, agg["query"].Wall, agg)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every workload, at a hundredth of its size, in both modes: each metric
// BENCHMARK.json names is printed with the unit it names, the output gate
// holds, and the count-type metrics agree between two runs.
func TestSmokeAllWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	for i, b := range bounds {
		if e := bf.EndToEnd[i]; e.Name != b.Name || e.Bound != b.Bound || (e.Better == "higher") != b.Higher {
			t.Errorf("BENCHMARK.json has %+v where the harness's A/A table has %+v", e, b)
		}
	}
	setupsPerRun = 1 // only counts and units are checked here
	o := options{Seed: 1, Seconds: referenceSeconds, Scale: 0.01}
	for i, s := range specs {
		if bf.Workloads[i].Name != s.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, bf.Workloads[i].Name, s.Name)
		}
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel() // only counts are compared, so sharing the CPUs is harmless
			var runs [2]*record
			for r := range runs {
				rec, err := runWorkload(s, o)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Attempted == 0 {
					t.Fatalf("incorrect run: %d of %d failed, breaches %v", rec.Failed, rec.Attempted, rec.Breaches)
				}
				runs[r] = rec
			}
			for _, e := range bf.EndToEnd {
				m, ok := runs[0].Metrics[e.Name]
				if !ok || m.Unit != e.Unit || m.Value <= 0 {
					t.Errorf("%s: printed as %+v (present %v), want a positive value in %q", e.Name, m, ok, e.Unit)
				}
			}
			if len(runs[0].Metrics) != len(bf.EndToEnd) {
				t.Errorf("%d end-to-end metrics printed, BENCHMARK.json names %d", len(runs[0].Metrics), len(bf.EndToEnd))
			}
			for _, b := range bounds {
				exact := b.Exact || (s.Virtual && (b.Name == "query_p50_us" || b.Name == "query_p90_us"))
				if exact && runs[0].Metrics[b.Name] != runs[1].Metrics[b.Name] {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", b.Name, runs[0].Metrics[b.Name], runs[1].Metrics[b.Name])
				}
			}

			to := o
			to.Trace = 1
			rec, err := runWorkload(s, to)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("incorrect traced run: breaches %v", rec.Breaches)
			}
			for _, e := range bf.PerLayer {
				if m, ok := rec.Metrics[e.Name]; !ok || m.Unit != e.Unit {
					t.Errorf("%s: printed as %+v (present %v), want unit %q", e.Name, m, ok, e.Unit)
				}
			}
			if len(rec.Metrics) != len(bf.PerLayer) {
				t.Errorf("%d per-layer metrics printed, BENCHMARK.json names %d", len(rec.Metrics), len(bf.PerLayer))
			}
			if fi, err := os.Stat(filepath.Join(".bench_build", "trace-"+s.Name+".json")); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// The meter's count — one per CallCtx with from ≠ to — is the simulator's own.
func TestMeterAgreesWithSimnet(t *testing.T) {
	s, _ := specByName("mixed")
	d, err := build(s.sized(0.01), options{Seed: 1, Scale: 0.01}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	got, want := d.meter.snapshot(), d.sim.Stats()
	if got.calls() != want.Calls || got.bytes() != want.Bytes || got.calls() == 0 {
		t.Errorf("meter counted %d calls / %d bytes, simnet %d / %d", got.calls(), got.bytes(), want.Calls, want.Bytes)
	}
}
