package main

import (
	"fmt"
	"math"
	"time"
)

// spec is one workload: a deployment shape plus the timed stream driven
// against it. Everything else is the paper's configuration (§6.2): 5 initial
// terms, 5 per learning iteration, 3 iterations, top-20 answers, Zipf(0.5)
// draws over the held-out half of the generated queries, issuers rotated over
// all peers.
type spec struct {
	Name string
	// Peers and Docs size the deployment.
	Peers, Docs int
	// TCP runs the peers over loopback sockets (internal/transport); otherwise
	// they share one simnet.
	TCP bool
	// Virtual runs the deployment on a vtime.Sim clock with every link delay
	// slept on it during warm-up and the timed phase; latency percentiles are
	// then virtual microseconds.
	Virtual bool
	// Parallelism is core.Config.Parallelism; Clients the closed-loop client
	// goroutines (never more than nproc = 2).
	Parallelism, Clients int
	// Caches turns the postings and result caches on, TTLs longer than any
	// run so that only index mutations invalidate.
	Caches bool
	// WriteEvery interleaves one write per that many queries (0: read-only).
	WriteEvery int
	// Queries is the timed phase's fixed query count at -seconds
	// referenceSeconds; other lengths scale it linearly. The counts are what
	// lets the driver's 92 runs, each with three set-ups, fit its 3 420 s cap
	// on the reference 2-core host even in an hour when it runs a third
	// slow: 8–9 s of timed phase for route, postings and mixed and 12 s for
	// tcp in a quiet one, half as much again in a slow one. The phase is count-driven: it takes however long it
	// takes.
	Queries int
	// Fill is how many queries fillHistories inserts before the timed phase
	// (0: none). route has none: its 4 096 histories hold sixteen million
	// entries and no run comes near filling them.
	Fill int
}

// referenceSeconds is the -seconds value the workloads' Queries are sized for,
// and BENCHMARK.json's run_seconds.
const referenceSeconds = 12

var specs = []spec{
	{
		Name:  "route",
		Peers: 4096, Docs: 1000, Virtual: true, Parallelism: 1, Clients: 1,
		Queries: 80000,
	},
	{
		Name:  "postings",
		Peers: 16, Docs: 2000, Parallelism: 1, Clients: 1,
		Queries: 68000, Fill: 24000,
	},
	{
		Name:  "mixed",
		Peers: 64, Docs: 1000, Parallelism: 2, Clients: 1, Caches: true, WriteEvery: 50,
		Queries: 39000, Fill: 64000,
	},
	{
		Name:  "tcp",
		Peers: 16, Docs: 500, TCP: true, Parallelism: 1, Clients: 2,
		Queries: 36000, Fill: 12000,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// collectionSeed seeds the benchmark's standing collection (the year of the
// paper): corpus, judged queries and their train/test split. It plays the part
// TREC9 plays in the paper — one body of text under every run — so that across
// -seed values the count metrics move by the sampling error of the traffic
// (≈ 0.1 %), not by the 3–8 % a new corpus moves them.
const collectionSeed = 2007

// Fixed sizes of the phases around the timed one.
const (
	topK           = 20
	learnIters     = 3
	warmupQueries  = 2000
	cacheTTL       = 24 * time.Hour
	linkDelayMin   = 500 * time.Microsecond // one-way, uniform in [min, max): mean 1 ms
	linkDelayMax   = 1500 * time.Microsecond
	tracedFraction = 5 // the traced pass replays one fifth of the timed phase
)

// setupsPerRun is how many complete set-ups a run makes: setup_s is their
// median and the last one is measured. A variable only so that the smoke test
// can make one.
var setupsPerRun = 3

// scaled shrinks a count by -scale, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(math.Round(float64(n)*scale)), floor)
}

// sized applies -scale to the deployment so smoke tests build in
// milliseconds. At scale 1 it is the identity: every workload is above the
// floors.
func (s spec) sized(scale float64) spec {
	s.Peers = scaled(s.Peers, scale, 8)
	s.Docs = scaled(s.Docs, scale, 60)
	return s
}

// queries is the timed phase's query count for a run of the given length.
func (s spec) queries(seconds int, scale float64) int {
	return scaled(s.Queries*seconds/referenceSeconds, scale, 100)
}

// slicesPerPhase is how many equal stretches the timed phase is cut into,
// each with a calibration reading on either side: about a tenth of a second
// each at the reference length.
const slicesPerPhase = 150

// sliceOps is the length of one slice of a stream of n operations: the
// nearest whole number of write cycles (Unshare, Share, LearnDoc and the
// queries between them) when the workload writes, so that every slice holds
// the same mix, and of clients otherwise, so that every client gets the same
// share. A slice is never shorter than minSliceOps: scaled-down runs get
// fewer slices.
func (s spec) sliceOps(n int) int {
	unit := max(s.Clients, 1)
	if s.WriteEvery > 0 {
		unit = 3 * (s.WriteEvery + 1)
	}
	return max((max(n/slicesPerPhase, minSliceOps)+unit/2)/unit, 1) * unit
}

const minSliceOps = 64
