# Development targets. `make check` is the tier-1 gate (see ROADMAP.md):
# everything must pass before a change lands.

GO ?= go

.PHONY: check vet build test race bench bench-cpu bench-test bench-route bench-learn bench-fetch bench-trace-route bench-trace-mixed bench-trace-postings cover coverage-gate smoke-churn smoke-parallel smoke-tcp send-guard api-guard alloc-guard smoke-scale smoke-determinism smoke-postings smoke-repair smoke-similarity similarity-check churn-check examples-smoke chaos-smoke fuzz-smoke vulncheck experiments experiments-check

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run XXX -bench . -benchmem ./...

# Per-layer CPU of a query's hot spots: one next-hop answer on a 4 096-node
# ring (hops drawn from real lookups), sizing a get_postings reply and a
# next_hop request, decoding a 60-posting list, scoring one long list and one
# query's four lists, recording a query at an indexing peer, answering one
# poll item over a full history (512 or 75 distinct queries), one limit-2
# fan-out over three items that each need 16 KB of stack and one over three
# items of about 0.3 µs of CPU (a caller that outruns its helper), and one loopback
# echo call with 1 and with 16 concurrent callers sharing a connection. CI
# runs each once (BENCHTIME=1x) so they keep compiling and running.
BENCHTIME ?= 1s

bench-cpu:
	$(GO) test -run XXX -bench '^Benchmark(NextHop|Size|MergeTopK|ScoreQuery|CursorScan|CacheQuery|Poll|PollRepeats|MapDeepStack|MapShortItems|Call)$$' -benchmem -benchtime=$(BENCHTIME) ./internal/chord ./internal/wire ./internal/index ./internal/ir ./internal/core ./internal/fanout ./internal/transport

# The repository benchmark (bench/, a module of its own — see bench/README.md):
# its harness tests, and one 12-second pass of the routing-bound workload.
bench-test:
	cd bench && $(GO) test ./...

bench-route:
	bash bench/run.sh --workload route --seed 1 --seconds 12 --trace 0

# Attribution guard: a short traced pass of the routing workload must still
# explain every nanosecond — span self times summing to the roots, and
# chord.route + core.fetch summing to the virtual latency — and be correct. A
# protocol change that moves query traffic to a message type the benchmark's
# tracer does not know breaks the second sum, and this target, first.
bench-trace-route:
	@out=$$(bash bench/run.sh --workload route --seed 1 --seconds 2 --trace 1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E 'check:|^rank_hash|^operations attempted'; \
	[ "$$(echo "$$out" | grep -c '(equal: true)')" -eq 2 ] || { echo "bench-trace-route: want both sum checks to print (equal: true)"; exit 1; }; \
	echo "$$out" | grep -q '"correct":true' || { echo "bench-trace-route: run is not correct"; exit 1; }

# Learning-traffic guard: a learning sweep sends each indexing peer one poll
# and one publish per owner, a poll goes straight to the peer the owner
# published the term at, and a term's first publish to the peer the owner's
# own node names for its key — a share's publishes too, one per indexing peer.
# A key in the owner's own arc is served by the owner itself, without a
# message. On the 4 096-peer ring, where an owner has about a quarter of a
# document and its node rarely knows a key's arc, that leaves ≈ 24.1 messages
# per document per iteration (routing every poll cost 46.4); on postings, 125
# documents per owner on 16 peers, ≈ 0.52 (one poll per term cost 16.3;
# routing each first publish, 2.68; walking the ring for the owner's own arc,
# 1.44), and a share ≈ 4.16 messages per document (routing each initial term,
# 5.27; walking for the owner's own arc, 4.47). learn_msgs and share_msgs are
# counted during set-up, which does not scale with --seconds, so one second
# reads what twelve do. The ceilings are those readings plus 2–7 %.
LEARN_CEIL_route = 24.6
LEARN_CEIL_postings = 0.56
SHARE_CEIL_postings = 4.25

bench-learn:
	@for w in route postings; do \
		ceil=$$([ $$w = route ] && echo $(LEARN_CEIL_route) || echo $(LEARN_CEIL_postings)); \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$w: $$(echo "$$out" | grep -E '^learn_msgs|^share_msgs|^rank_hash|^operations attempted' | tr -s ' ' | paste -sd ';' -)"; \
		echo "$$out" | grep -q '"correct":true' || { echo "bench-learn: $$w run is not correct"; exit 1; }; \
		echo "$$out" | awk -v c=$$ceil '$$1 == "learn_msgs" { seen = 1; ok = ($$2 <= c) } END { exit !(seen && ok) }' \
			|| { echo "bench-learn: $$w learn_msgs missing or above $$ceil"; exit 1; }; \
		[ $$w = route ] || echo "$$out" | awk -v c=$(SHARE_CEIL_postings) '$$1 == "share_msgs" { seen = 1; ok = ($$2 <= c) } END { exit !(seen && ok) }' \
			|| { echo "bench-learn: $$w share_msgs missing or above $(SHARE_CEIL_postings)"; exit 1; }; \
	done

# Query-traffic guard: a query names the indexing peer of nearly every term
# from its own node's state — every finger knows its node's whole arc — and
# sends each such peer one get_postings for all of its terms; a term in the
# querier's own arc it serves itself. On the two 16-peer workloads that leaves
# ≈ 3.88 messages per query on postings and ≈ 3.73 on tcp (asking the ring for
# each term's peer, one get_postings per term, cost 5.72 and 5.64; walking the
# ring for the querier's own arc, 4.16 and 4.01). query_msgs is a count that
# repeats exactly for a seed; one second's stream reads within a percent of
# twelve seconds'.
FETCH_CEIL_postings = 4.0
FETCH_CEIL_tcp = 3.9
# Poll-traffic guard: mixed's timed phase learns once per write, and a poll
# answers each elected query once with its issuance count. At --seconds 2,
# seed 1, query_bytes reads 318.46 B/query; answering one copy of a query per
# issuance read 962.84. The ceiling is the reading + 5 %.
BYTES_CEIL_mixed = 334

bench-fetch:
	@for w in postings tcp mixed; do \
		case $$w in \
		postings) metric=query_msgs ceil=$(FETCH_CEIL_postings) secs=1;; \
		tcp) metric=query_msgs ceil=$(FETCH_CEIL_tcp) secs=1;; \
		mixed) metric=query_bytes ceil=$(BYTES_CEIL_mixed) secs=2;; \
		esac; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds $$secs --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$w: $$(echo "$$out" | grep -E "^$$metric|^rank_hash|^operations attempted" | tr -s ' ' | paste -sd ';' -)"; \
		echo "$$out" | grep -q '"correct":true' || { echo "bench-fetch: $$w run is not correct"; exit 1; }; \
		echo "$$out" | awk -v m=$$metric -v c=$$ceil '$$1 == m { seen = 1; ok = ($$2 <= c) } END { exit !(seen && ok) }' \
			|| { echo "bench-fetch: $$w $$metric missing or above $$ceil"; exit 1; }; \
	done

# Invalidation guard: a short traced pass of the write-mixed workload must
# sum and be correct like the routing one (on the wall clock only the
# self-time check prints; the virtual-latency one belongs to `route`), and its
# postings cache must stay warm across writes. At --seconds 2, seed 1, a write
# that invalidates only its own terms reads cache.postings_hit_ratio 0.955;
# one that flushes every term, as the global generation bump did, reads 0.198.
MIXED_HIT_FLOOR = 0.80

bench-trace-mixed:
	@out=$$(bash bench/run.sh --workload mixed --seed 1 --seconds 2 --trace 1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E 'check:|^rank_hash|^operations attempted|^cache\.postings_hit_ratio'; \
	echo "$$out" | grep -q '(equal: true)' && ! echo "$$out" | grep -q '(equal: false)' || { echo "bench-trace-mixed: want every sum check to print (equal: true)"; exit 1; }; \
	echo "$$out" | grep -q '"correct":true' || { echo "bench-trace-mixed: run is not correct"; exit 1; }; \
	echo "$$out" | awk '$$1 == "cache.postings_hit_ratio" { seen = 1; ok = ($$2 >= $(MIXED_HIT_FLOOR)) } END { exit !(seen && ok) }' \
		|| { echo "bench-trace-mixed: cache.postings_hit_ratio missing or below $(MIXED_HIT_FLOOR)"; exit 1; }

# Ingest and query trend: a short traced pass of the CPU-bound workload must
# sum and be correct like the other two, and echoes the per-layer readings of
# the two paths it exists to watch — what one posting costs to add to and take
# out of an index and the reference system's whole build (the write path);
# the querier's own time per search, the indexing peer's time per fetch, which
# includes recording the query, and what a query allocates (the query path) —
# so a run's log shows them next to the last one's. They are wall-clock on a
# shared host: trended, not thresholded; a reading that is missing fails.
POSTINGS_TREND = index.add_ns index.remove_ns central.build_s core.search_self_us core.get_postings_handler_us runtime.allocs_per_query runtime.alloc_bytes_per_query

bench-trace-postings:
	@out=$$(bash bench/run.sh --workload postings --seed 1 --seconds 2 --trace 1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E 'check:|^rank_hash|^operations attempted'; \
	echo "$$out" | grep -q '(equal: true)' && ! echo "$$out" | grep -q '(equal: false)' || { echo "bench-trace-postings: want every sum check to print (equal: true)"; exit 1; }; \
	echo "$$out" | grep -q '"correct":true' || { echo "bench-trace-postings: run is not correct"; exit 1; }; \
	for m in $(POSTINGS_TREND); do \
		echo "$$out" | awk -v m="$$m" '$$1 == m { print; seen = 1 } END { exit !seen }' \
			|| { echo "bench-trace-postings: $$m missing"; exit 1; }; \
	done

cover:
	$(GO) test -cover ./...

# Fast fault-tolerance smoke: every churn/failover/resilience test under the
# race detector, without the rest of the suite.
smoke-churn:
	$(GO) test -race -run 'Churn|Resilien|Failover|Partial|TestDo|Backoff|Jitter|Classify' ./...

# Fast concurrency smoke: the query execution engine's determinism and race
# regression tests (sequential ≡ parallel), plus the fanout executor, the
# GoGroup primitive it stands on (wall and virtual clock) and the accumulator
# arrival-order property tests, all under the race detector.
smoke-parallel:
	$(GO) test -race -run 'Parallel|Fanout|Map|ForEach|Accumulator|RankedTop|SleepingLatency|GoGroup' ./internal/fanout/ ./internal/core/ ./internal/ir/ ./internal/simnet/ ./internal/vtime/

# Virtual-time smoke: the event scheduler's own suite, the wall/virtual twin
# and same-seed determinism regressions, a unit-sized scale sweep, and the
# chaos matrix on the event clock — everything the 100k-peer experiments
# stand on, in well under a minute.
smoke-scale:
	$(GO) test -race ./internal/vtime/
	$(GO) test -run 'Virtual|TestRunScale' ./internal/eval/ ./internal/chaos/
	$(GO) test -run 'TestVirtualTime' .

# The twin and same-seed determinism tests of smoke-scale, core's
# sequential ≡ parallel test and the virtual clock's own timeline tests, at
# one scheduler width: `make smoke-determinism GOMAXPROCS=2`. CI runs it at
# 1, 2 and 8 so that a scheduling-dependent quantity cannot slip into the
# determinism contract on a host size nobody tried; at 1 a fan-out's helper
# most often never runs. Which worker takes which item off a GoGroup's
# cursor depends on the host's scheduler; Elapsed must not.
smoke-determinism:
	GOMAXPROCS=$(GOMAXPROCS) $(GO) test -count=1 -run 'Virtual' ./internal/eval/ ./internal/chaos/ .
	GOMAXPROCS=$(GOMAXPROCS) $(GO) test -count=1 -run '^TestParallelDeterminismMatchesSequential$$' ./internal/core/
	GOMAXPROCS=$(GOMAXPROCS) $(GO) test -count=1 -run '^(TestSimDeterminism|TestSimGoGroupHandoff|TestSimOrdering)$$' ./internal/vtime/

# Real-socket transport smoke: the TCP transport (pool lifecycle, mux demux,
# reconnect, timeout taxonomy, frame cap, unencodable payloads) five times
# over, since callers and handlers write frames on their own goroutines; the binary
# codec, and the facade twin tests that demand identical rankings and message
# counts from simnet and TCP — all under the race detector. Then a guard that
# the system has one codec: no non-test package may import encoding/gob.
smoke-tcp:
	$(GO) test -race -count=5 ./internal/transport/
	$(GO) test -race ./internal/wire/
	$(GO) test -race -run 'TransportTwin' .
	@gob=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk '/ encoding\/gob( |$$)/ { print $$1 }'); \
	[ -z "$$gob" ] || { echo "smoke-tcp: encoding/gob imported by $$gob"; exit 1; }

# One way out of a peer: in internal/core only send.go calls the transport
# or routes on the ring, so routing, resilience, spans and batching have one
# home. Fails naming every other non-test core line that calls CallCtx,
# RouteVia, Lookup or LookupExcluding. And one message
# cost: a message's Size is its payload's encoded length, set as it is handed
# to the transport (core's send.go, chord's rpc) or returned by a handler
# (core's peer.go, chord's HandleMessage), to wire.Size of the payload and
# nothing else. Fails naming every other non-test core or chord line that
# writes a Size: field or assigns .Size, so hand-written sizes cannot return.
send-guard:
	@calls=$$(grep -nE '\.(CallCtx|RouteVia|Lookup|LookupExcluding)\(' internal/core/*.go | grep -vE '^internal/core/(send\.go|[^:]*_test\.go):'); \
	[ -z "$$calls" ] || { echo "send-guard: calls outside internal/core/send.go:"; echo "$$calls"; exit 1; }
	@sizes=$$(grep -nE '\bSize:|\.Size =' internal/core/*.go internal/chord/*.go | grep -vE '^internal/(core|chord)/[^:]*_test\.go:' \
		| grep -vE '^internal/(core/send|core/peer|chord/chord)\.go:[0-9]+:.*(Size: |\.Size = )wire\.Size\([A-Za-z_.]+\)([,})]|$$)'); \
	[ -z "$$sizes" ] || { echo "send-guard: message sizes not set to wire.Size at a setter site:"; echo "$$sizes"; exit 1; }

# API and doc guards, on one go/ast census of the tree (census_test.go): every
# exported function or method declared in a non-test file under internal/
# has a use outside _test.go files (bench/, cmd/ and examples/ count) unless
# census_test.go's testOnlyAPI names it with its reason, and every
# identifier-shaped backticked token in DESIGN.md and README.md names
# something the tree declares; and no non-test file outside internal/deploy
# and bench/ calls simnet.New, transport.New, vtime.NewSim, chord.NewRing or
# core.NewNetwork (a deployment is built with deploy.New). `go test -run
# TestCensus -v .` prints the non-test and test lines of each package from
# the same census.
api-guard:
	$(GO) test -count=1 -run '^(TestExportedNamesHaveCallers|TestDocsNameOnlyDeclaredIdentifiers|TestDeploymentsBuiltOneWay|TestCensusGuardsOnFixture)$$' .

# Allocation guard: what one uncached search, one cached search, a
# one-document sweep, one share and one unshare allocate on a fixed 16-peer
# simnet deployment (Parallelism 1, telemetry off), held to the ceilings in
# internal/core/alloc_test.go; and what one loopback echo call allocates on
# the TCP transport, with telemetry off and on, held to the ceiling in
# internal/transport/transport_test.go. Allocation counts repeat exactly for
# a toolchain, so a path that starts allocating more fails here before any
# wall-clock number moves. On the same core deployment, what one owned
# document and one history issuance keep live on the heap, held to the
# ceilings of TestHeapCeilings: a layout that keeps more per document or per
# issuance fails here before mem_heap_mb moves. And what decoding the
# overlay's hot payloads allocates, held to the ceilings in
# internal/chord/wirecodec_test.go: a decode that starts copying ring IDs or
# an envelope's payload fails here.
alloc-guard:
	$(GO) test -count=1 -run 'TestAllocationCeilings|TestHeapCeilings' -v ./internal/core
	$(GO) test -count=1 -run 'TestCallAllocations' -v ./internal/transport
	$(GO) test -count=1 -run 'TestDecodeAllocations' -v ./internal/chord

# Compressed-postings smoke: the block codec's property tests (compressed ≡
# plain twin, marshal round-trip, cursor snapshot semantics, compression
# ratio) and the streaming scoring bit-identity tests. The benchmark's
# `postings` workload measures the store end to end.
smoke-postings:
	$(GO) test -race ./internal/index/
	$(GO) test -race -run 'Stream|Merge' ./internal/ir/

# Placement smoke: the repair package's digest property tests, the join/leave
# handoff + anti-entropy protocol suites in core, replicas made and dropped
# by Repair alone (none sent on a publish), the learning sweep's
# re-anchoring of postings lost to a crash or a join without handoff
# (TestRefresh*), the facade and REPL join/leave paths (race detector on all
# of those), plus the mass-churn determinism soak, the stranded-entry
# mutation test and a 400-step chaos run (≈ 10 s on 2 cores), which gives the
# leave and mass-leave ops a deeper run than chaos-smoke's 150 steps.
smoke-repair:
	$(GO) test -race ./internal/repair/
	$(GO) test -race -run 'Handoff|Leave|Repair|AntiEntropy|Refresh|Replica' ./internal/core/
	$(GO) test -race -run 'JoinLeave' . ./cmd/spritesim/
	$(GO) test -run 'MassChurnSoak|StrandedEntry' ./internal/chaos/
	$(GO) test ./internal/chaos -run TestChaos -chaos.steps=400

# Similarity-retrieval smoke: the sketch package's property suite (projection
# determinism, quantized-cosine bounds, codec round-trip), the end-to-end
# similarity search and twin determinism tests, and a small-tier run of the
# similarity benchmark comparing sketch-routed search against flooding.
smoke-similarity:
	$(GO) test -race ./internal/sketch/
	$(GO) test -race -run 'Similar' ./internal/core/ ./internal/ir/ ./internal/eval/ .
	$(GO) run ./cmd/spritebench -similarity-tiers 1000 -similarity-peers 128 -similarity-queries 20 similarity

# Similarity baseline guard: BENCH_similarity.json is the output of
# `go run ./cmd/spritebench -json similarity` (≈ 16 s on 2 cores). Rerun it
# and fail if any column other than wall_ms — the tier's real time — differs
# from the committed file on either tier, so a change that moves the routed or
# flooding arm's numbers regenerates the baseline in the same commit. Both
# sides are read with jq, which prints each number the same way.
SIMILARITY_FIELDS = [.[] | .experiment, (.report | .columns as $$c | ([$$c[] | select(. != "wall_ms")]), (.rows[] | [range(length) as $$i | select($$c[$$i] != "wall_ms") | .[$$i]]))]

similarity-check:
	@want=$$(jq -c '$(SIMILARITY_FIELDS)' BENCH_similarity.json) || exit 1; \
	got=$$($(GO) run ./cmd/spritebench -json similarity | jq -c '$(SIMILARITY_FIELDS)') || exit 1; \
	echo "similarity: $$got"; \
	[ -n "$$got" ] && [ "$$got" = "$$want" ] || { echo "similarity-check: BENCH_similarity.json reads $$want"; exit 1; }

# Churn baseline guard: BENCH_churn.json is the output of
# `go run ./cmd/spritebench -json churn` (≈ 10 s on 2 cores). Its table has no
# wall-clock column, so rerun it and fail on any byte of difference: a change
# that moves a churn arm's quality or the membership waves' moved entries or
# repair messages regenerates the baseline in the same commit.
churn-check:
	@got=$$($(GO) run ./cmd/spritebench -json churn) || exit 1; \
	echo "$$got" | diff -u BENCH_churn.json - || { echo "churn-check: BENCH_churn.json differs from what spritebench prints"; exit 1; }

# Examples smoke: each simulator example must print exactly its committed
# examples/<name>/expected.txt — rankings, learned terms, message counts and
# the churn table are all deterministic for a fixed seed. tcpdemo's peer names
# are the kernel's choice of ports, so it only has to exit 0.
examples-smoke:
	@for e in quickstart churn adaptive newsarchive; do \
		$(GO) run ./examples/$$e | diff -u examples/$$e/expected.txt - || { echo "examples-smoke: $$e output differs from expected.txt"; exit 1; }; \
	done
	$(GO) run ./examples/tcpdemo > /dev/null

# Deterministic whole-system smoke: the chaos harness on its fixed seed set.
# Violations print a shrunk repro and a `-chaos.seed=N` replay recipe (see
# DESIGN.md § Correctness tooling). Kept under a minute for CI.
chaos-smoke:
	$(GO) test ./internal/chaos -run TestChaos -chaos.steps=150 -timeout 5m

# Native Go fuzz targets, 10s each: the text pipeline (never panic, stemming
# idempotent), the wire codec (payload round-trip, garbage never panics), the
# TCP transport's frame parser (hostile bodies refused or parsed inside their
# bounds, encoded frames round-tripping every field),
# the postings blocks (decode of garbage, and write sequences through the
# encoded splice staying canonical and valid), and snapshot loading (hostile
# files refused without a panic or an allocation beyond the input, accepted
# ones saving byte-stably). Its seeds are whole snapshot files, and shrinking
# one that finds new coverage takes the default minute, so minimization is
# capped at ten tries to leave the ten seconds for fuzzing.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzStem -fuzztime=10s ./internal/text
	$(GO) test -run=NONE -fuzz=FuzzTokenize -fuzztime=10s ./internal/text
	$(GO) test -run=NONE -fuzz=FuzzAnalyzerTerms -fuzztime=10s ./internal/text
	$(GO) test -run=NONE -fuzz=FuzzCodec -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzBinaryProtocol -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzFrame -fuzztime=10s ./internal/transport
	$(GO) test -run=NONE -fuzz=FuzzPostingsBlock -fuzztime=10s ./internal/index
	$(GO) test -run=NONE -fuzz=FuzzPostingsSplice -fuzztime=10s ./internal/index
	$(GO) test -run=NONE -fuzz='FuzzSketch$$' -fuzztime=10s ./internal/sketch
	$(GO) test -run=NONE -fuzz=FuzzSnapshotLoad -fuzztime=10s -fuzzminimizetime=10x ./internal/core

# Generated experiment tables: each block of EXPERIMENTS.md that opens with
# `<!-- BEGIN spritebench ARGS -->` and closes with `<!-- END spritebench -->`
# holds the text output of `spritebench ARGS`. `make experiments` rewrites
# every block in place (≈ 40 s at the default scale on 2 cores);
# `make experiments-check` then fails if that moved anything, so a change
# that moves a number the tables show regenerates them in the same commit.
# Only deterministic experiments go in blocks: their output is a function of
# the flags alone, identical at any GOMAXPROCS and -parallel.
EXPERIMENTS_BIN = .bench_build/spritebench

experiments:
	$(GO) build -o $(EXPERIMENTS_BIN) ./cmd/spritebench
	@awk -v bin=$(EXPERIMENTS_BIN) ' \
		/^<!-- END spritebench -->$$/ { skip = 0 } \
		skip { next } \
		{ print } \
		/^<!-- BEGIN spritebench .* -->$$/ { \
			cmd = $$0; sub(/^<!-- BEGIN spritebench /, "", cmd); sub(/ -->$$/, "", cmd); cmd = bin " " cmd; \
			print "```text"; \
			while ((cmd | getline line) > 0) print line; \
			if (close(cmd) != 0) { print "experiments: " cmd " failed" > "/dev/stderr"; exit 1 } \
			print "```"; skip = 1 \
		}' EXPERIMENTS.md > EXPERIMENTS.md.tmp && mv EXPERIMENTS.md.tmp EXPERIMENTS.md || { rm -f EXPERIMENTS.md.tmp; exit 1; }

experiments-check: experiments
	git diff --exit-code -- EXPERIMENTS.md

# Coverage floor on the invariant-bearing packages. The threshold guards the
# correctness tooling itself: chaos checkers or core introspection that rot
# uncovered would silently stop guarding everything else.
COVER_PKGS = ./internal/core ./internal/ir ./internal/index ./internal/chaos ./internal/transport ./internal/wire ./internal/vtime ./internal/repair ./internal/sketch
COVER_MIN  = 70

coverage-gate:
	$(GO) test -coverprofile=cover.out -coverpkg=$(shell echo $(COVER_PKGS) | tr ' ' ',') $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_MIN))}" || { echo "coverage $$total% below $(COVER_MIN)%"; exit 1; }

# Known-vulnerability scan. Advisory: requires network access to the vuln DB,
# so CI runs it non-blocking and local runs may skip it offline.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./... || true
