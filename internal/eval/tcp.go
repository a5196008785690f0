package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/nettransport"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/telemetry"
	"github.com/spritedht/sprite/internal/transport"
)

// TCPArm is one measured cell of the transport benchmark: a ring size, a
// client concurrency level, and one of the two real-socket transports.
type TCPArm struct {
	Peers       int
	Concurrency int
	// Transport is "dial" (naive dial-per-RPC, gob frames) or "pooled"
	// (persistent multiplexed connections, binary codec, micro-batching).
	Transport string
	// Queries actually measured (Concurrency workers x per-worker share).
	Queries int
	// ThroughputQPS is measured searches per wall-clock second.
	ThroughputQPS float64
	// Per-search wall latency in microseconds.
	MeanUS float64
	P50US  int64
	P95US  int64
	P99US  int64
	// Dials is how many TCP connections were opened over the whole arm
	// (setup + hash phase + measured phase); PeakConns is the high-water
	// mark of simultaneously open client connections.
	Dials     int64
	PeakConns int64
	// AllocsPerOp is the whole-process heap allocation count per measured
	// search (client and server side share the process, so both are billed).
	AllocsPerOp uint64
	// Hash fingerprints the ranked lists of the deterministic query replay.
	// Identical across transports or the transport corrupted a result.
	Hash string
}

// TCPResult is the transport benchmark: the same workload driven over the
// naive dial-per-RPC transport and the pooled multiplexed one, across ring
// sizes and client concurrency levels, on real loopback sockets.
type TCPResult struct {
	Sizes       []int
	Concurrency []int
	Arms        []TCPArm
}

// RunTCP benchmarks the two real TCP transports against each other on
// loopback. For every (ring size, concurrency) cell it builds a fresh Chord
// ring and SPRITE network over each transport, shares the same deterministic
// corpus, replays a fixed query set sequentially to fingerprint the rankings
// (and warm every code path), then measures a concurrent search phase:
// latency quantiles, throughput, connection counts, and allocations per
// search. The ranking fingerprint must be identical across transports —
// the benchmark fails otherwise, so a speedup can never hide a wrong answer.
// sizes defaults to {4, 8}; conc to {1, 8}; queries (per arm) to 240.
func RunTCP(sizes, conc []int, queries int) (*TCPResult, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8}
	}
	if len(conc) == 0 {
		conc = []int{1, 8}
	}
	if queries <= 0 {
		queries = 240
	}
	res := &TCPResult{Sizes: sizes, Concurrency: conc}
	for _, peers := range sizes {
		for _, c := range conc {
			var hash string
			for _, mode := range []string{"dial", "pooled"} {
				arm, err := runTCPArm(mode, peers, c, queries)
				if err != nil {
					return nil, fmt.Errorf("eval: tcp %s n=%d c=%d: %w", mode, peers, c, err)
				}
				if hash == "" {
					hash = arm.Hash
				} else if arm.Hash != hash {
					return nil, fmt.Errorf("eval: tcp n=%d c=%d: transports disagree on rankings (%s: %s, dial: %s)",
						peers, c, mode, arm.Hash, hash)
				}
				res.Arms = append(res.Arms, arm)
			}
		}
	}
	return res, nil
}

// tcpVocab is the benchmark's fixed vocabulary; documents and queries are
// derived from it by index arithmetic so every arm shares one workload.
var tcpVocab = []string{
	"socket", "frame", "codec", "pool", "mux", "batch",
	"dial", "chord", "index", "query", "peer", "learn",
}

func tcpQueries() [][]string {
	qs := make([][]string, len(tcpVocab))
	for i := range tcpVocab {
		qs[i] = []string{tcpVocab[i], tcpVocab[(i+5)%len(tcpVocab)]}
	}
	return qs
}

func runTCPArm(mode string, peers, conc, queries int) (TCPArm, error) {
	arm := TCPArm{Peers: peers, Concurrency: conc, Transport: mode}
	reg := telemetry.NewRegistry()

	var (
		tr         simnet.Transport
		closeTr    func()
		lastErr    func() error
		dialsName  string
		connsGauge string
	)
	switch mode {
	case "pooled":
		t := transport.New(transport.WithTelemetry(reg))
		tr, closeTr, lastErr = t, t.Close, t.LastError
		dialsName, connsGauge = "tcp.dials", "tcp.conns.open"
	case "dial":
		t := nettransport.New(nettransport.WithTelemetry(reg))
		tr, closeTr, lastErr = t, t.Close, t.LastError
		dialsName, connsGauge = "net.dials", "net.conns.open"
	default:
		return arm, fmt.Errorf("unknown transport %q", mode)
	}
	defer closeTr()

	addrs, err := nettransport.FreeAddrs(peers)
	if err != nil {
		return arm, err
	}
	ring := chord.NewRing(tr, chord.Config{})
	for _, a := range addrs {
		if _, err := ring.AddNode(string(a)); err != nil {
			return arm, err
		}
	}
	if err := lastErr(); err != nil {
		return arm, err
	}
	ring.Build()
	net, err := core.NewNetwork(ring, core.Config{InitialTerms: 3, TermsPerIteration: 2, MaxIndexTerms: 8})
	if err != nil {
		return arm, err
	}

	for i := 0; i < 2*len(tcpVocab); i++ {
		tf := map[string]int{
			tcpVocab[i%len(tcpVocab)]:     3 + i%4,
			tcpVocab[(i+3)%len(tcpVocab)]: 2,
			tcpVocab[(i+7)%len(tcpVocab)]: 1,
		}
		doc := corpus.NewDocument(index.DocID(fmt.Sprintf("doc-%02d", i)), tf)
		if err := net.Share(addrs[i%peers], doc); err != nil {
			return arm, err
		}
	}

	// Fingerprint phase: the full query set, sequentially, hashing every
	// ranked list. Sequential order makes the hash deterministic, and the
	// replay doubles as warmup for the measured phase.
	qs := tcpQueries()
	h := sha256.New()
	for qi, q := range qs {
		rl, err := net.Search(addrs[qi%peers], q, 10)
		if err != nil {
			return arm, err
		}
		for _, hit := range rl {
			fmt.Fprintf(h, "%s=%s;", hit.Doc, strconv.FormatFloat(hit.Score, 'g', -1, 64))
		}
		io.WriteString(h, "|")
	}
	arm.Hash = hex.EncodeToString(h.Sum(nil))[:16]

	// Measured phase: conc workers, each replaying its slice of the query
	// stream against rotating origin peers.
	per := queries / conc
	if per == 0 {
		per = 1
	}
	total := per * conc
	lat := reg.Histogram("bench.search_us")
	errCh := make(chan error, conc)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := qs[(w*per+i)%len(qs)]
				from := addrs[(w+i)%peers]
				t0 := time.Now()
				if _, err := net.Search(from, q, 10); err != nil {
					errCh <- err
					return
				}
				lat.Observe(time.Since(t0).Microseconds())
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	select {
	case err := <-errCh:
		return arm, err
	default:
	}

	arm.Queries = total
	arm.ThroughputQPS = float64(total) / wall.Seconds()
	arm.MeanUS = lat.Mean()
	arm.P50US = lat.Quantile(0.50)
	arm.P95US = lat.Quantile(0.95)
	arm.P99US = lat.Quantile(0.99)
	arm.Dials = reg.Counter(dialsName).Value()
	arm.PeakConns = reg.Gauge(connsGauge).Peak()
	arm.AllocsPerOp = (m1.Mallocs - m0.Mallocs) / uint64(total)
	return arm, nil
}

// Table renders the transport comparison.
func (r *TCPResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Real-socket transport benchmark: dial-per-RPC gob vs pooled multiplexed binary\n")
	fmt.Fprintf(&b, "%-6s %-5s %-9s %-9s %-10s %-9s %-9s %-9s %-7s %-6s %-10s %-16s\n",
		"peers", "conc", "transport", "qps", "mean_us", "p50_us", "p95_us", "p99_us", "dials", "peak", "allocs/op", "result_hash")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%-6d %-5d %-9s %-9.0f %-10.1f %-9d %-9d %-9d %-7d %-6d %-10d %-16s\n",
			a.Peers, a.Concurrency, a.Transport, a.ThroughputQPS, a.MeanUS,
			a.P50US, a.P95US, a.P99US, a.Dials, a.PeakConns, a.AllocsPerOp, a.Hash)
	}
	return b.String()
}

// CSV renders one row per arm.
func (r *TCPResult) CSV() string {
	rows := make([][]string, 0, len(r.Arms))
	for _, a := range r.Arms {
		rows = append(rows, []string{
			fmt.Sprint(a.Peers), fmt.Sprint(a.Concurrency), a.Transport,
			fmt.Sprint(a.Queries), fmt.Sprintf("%.1f", a.ThroughputQPS),
			fmt.Sprintf("%.1f", a.MeanUS), fmt.Sprint(a.P50US), fmt.Sprint(a.P95US), fmt.Sprint(a.P99US),
			fmt.Sprint(a.Dials), fmt.Sprint(a.PeakConns), fmt.Sprint(a.AllocsPerOp), a.Hash,
		})
	}
	return csvRows("peers,concurrency,transport,queries,throughput_qps,mean_us,p50_us,p95_us,p99_us,dials,peak_conns,allocs_per_op,result_hash", rows)
}
