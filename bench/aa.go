package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// bounds is how far each end-to-end metric's median may worsen before it is a
// regression, and which way is worse; BENCHMARK.json carries the same table.
// Exact marks the count-type metrics that must be bit-identical from run to
// run of one seed.
var bounds = []struct {
	Name   string
	Bound  float64
	Higher bool // higher is better
	Exact  bool
}{
	{"setup_s", 0.25, false, false},
	{"query_qps", 0.25, true, false},
	{"query_p50_us", 0.25, false, false},
	{"query_p90_us", 0.25, false, false},
	{"query_msgs", 0.02, false, true},
	{"query_bytes", 0.03, false, true},
	{"share_msgs", 0.01, false, true},
	{"learn_msgs", 0.01, false, true},
	{"precision_ratio", 0.01, true, true},
	{"recall_ratio", 0.01, true, true},
	{"index_bytes_per_posting", 0.01, false, true},
	{"mem_heap_mb", 0.05, false, false},
}

// runAA is the A/A check: two interleaved sets (A B A B …) of o.AA passes of
// this very build over every named workload, each pass its own process so
// set-up is measured from a cold start. It prints, per workload and metric,
// both medians, their gap and the bound, and fails when a gap — in either
// direction: the sets are the same build — exceeds half the bound, or a
// count-type metric or the rank hash is not bit-identical across all 2N runs.
// The second set may run on -seed2 to show that the exact metrics are
// properties of the generator rather than of one seed; identity is then
// required within each set and the cross-set gap only reports.
func runAA(o options, names []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: aa:", err)
		return 1
	}
	seeds := [2]int64{o.Seed, o.Seed}
	if o.Seed2 != 0 {
		seeds[1] = o.Seed2
	}
	// ref[set] is the set whose first run every run of set must equal on the
	// exact metrics: set A's for both when the seeds are the same.
	sameSeed := seeds[0] == seeds[1]
	ref := [2]int{0, 1}
	if sameSeed {
		ref[1] = 0
	}
	fail := false
	for _, name := range names {
		var sets [2][]map[string]metric
		var hashes [2][]string
		for i := 0; i < 2*o.AA; i++ {
			set := i % 2
			m, hash, err := runOnce(self, name, seeds[set], o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: aa: %s run %d: %v\n", name, i, err)
				return 1
			}
			sets[set] = append(sets[set], m)
			hashes[set] = append(hashes[set], hash)
		}
		exactClock := name == "route" // virtual latencies are counts too
		fmt.Printf("== A/A %s: 2 x %d runs, seeds %d / %d ==\n", name, o.AA, seeds[0], seeds[1])
		fmt.Printf("%-26s %14s %14s %8s %8s  %s\n", "metric", "median A", "median B", "gap", "bound/2", "verdict")
		for _, b := range bounds {
			var vals [2][]float64
			for set := range sets {
				for _, m := range sets[set] {
					vals[set] = append(vals[set], m[b.Name].Value)
				}
			}
			ma, mb := median(vals[0]), median(vals[1])
			gap := math.Abs(mb-ma) / ma
			verdict := "ok"
			exact := b.Exact || (exactClock && (b.Name == "query_p50_us" || b.Name == "query_p90_us"))
			if exact {
				for set := range vals {
					for _, v := range vals[set] {
						if v != vals[ref[set]][0] {
							verdict, fail = "NOT BIT-IDENTICAL", true
						}
					}
				}
			}
			if sameSeed && gap > b.Bound/2 {
				verdict, fail = "GAP EXCEEDS HALF THE BOUND", true
			}
			fmt.Printf("%-26s %14.6g %14.6g %7.2f%% %7.2f%%  %s\n", b.Name, ma, mb, 100*gap, 100*b.Bound/2, verdict)
		}
		for set := range hashes {
			for _, h := range hashes[set] {
				if want := hashes[ref[set]][0]; h != want {
					fmt.Printf("rank_hash of a set %c run is %s, want %s\n", 'A'+set, h, want)
					fail = true
				}
			}
		}
		fmt.Printf("rank_hash A %s B %s\n", hashes[0][0], hashes[1][0])
	}
	if fail {
		fmt.Println("A/A FAILED")
		return 1
	}
	fmt.Println("A/A passed")
	return 0
}

// runOnce runs one end-to-end pass of one workload in a child process and
// returns its metrics and rank hash.
func runOnce(self, workload string, seed int64, o options) (map[string]metric, string, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.Seconds), "-scale", strconv.FormatFloat(o.Scale, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", err
	}
	var last, hash string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if h, ok := strings.CutPrefix(last, "rank_hash "); ok {
			hash = h
		}
	}
	var res struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, "", fmt.Errorf("last line is not the result object: %w", err)
	}
	if !res.Correct {
		return nil, "", fmt.Errorf("run reported incorrect output")
	}
	return res.Metrics, hash, nil
}
