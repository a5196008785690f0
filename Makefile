# Development targets. `make check` is the tier-1 gate (see ROADMAP.md):
# everything must pass before a change lands.

GO ?= go

.PHONY: check vet build test race bench bench-test bench-route bench-learn-route bench-trace-route bench-trace-mixed bench-trace-postings cover coverage-gate smoke-churn smoke-parallel smoke-tcp smoke-scale smoke-determinism smoke-postings smoke-repair smoke-similarity chaos-smoke fuzz-smoke vulncheck

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

# Learning-traffic guard: an owner polls the peer it published a term at, so
# on the 4 096-peer ring a learning iteration costs ≈ 25.4 messages per
# document; routing every poll cost 46.4. learn_msgs is counted during set-up,
# which does not scale with --seconds, so one second reads what twelve do.
LEARN_MSGS_CEIL = 27

bench-learn-route:
	@out=$$(bash bench/run.sh --workload route --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E '^learn_msgs|^rank_hash|^operations attempted'; \
	echo "$$out" | grep -q '"correct":true' || { echo "bench-learn-route: run is not correct"; exit 1; }; \
	echo "$$out" | awk '$$1 == "learn_msgs" { seen = 1; ok = ($$2 <= $(LEARN_MSGS_CEIL)) } END { exit !(seen && ok) }' \
		|| { echo "bench-learn-route: learn_msgs missing or above $(LEARN_MSGS_CEIL)"; exit 1; }

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
	$(GO) test -race -run 'Churn|Resilien|Failover|Partial|TestDo|Backoff|Jitter|Classify|Budget' ./...

# Fast concurrency smoke: the query execution engine's determinism and race
# regression tests (sequential ≡ parallel), plus the fanout executor and
# accumulator arrival-order property tests, all under the race detector.
smoke-parallel:
	$(GO) test -race -run 'Parallel|Fanout|Map|ForEach|Accumulator|RankedTop|SleepingLatency' ./internal/fanout/ ./internal/core/ ./internal/ir/ ./internal/simnet/

# Virtual-time smoke: the event scheduler's own suite, the wall/virtual twin
# and same-seed determinism regressions, a unit-sized scale sweep, and the
# chaos matrix on the event clock — everything the 100k-peer experiments
# stand on, in well under a minute.
smoke-scale:
	$(GO) test -race ./internal/vtime/
	$(GO) test -run 'Virtual|TestRunScale' ./internal/eval/ ./internal/chaos/
	$(GO) test -run 'TestVirtualTime' .

# The twin and same-seed determinism tests of smoke-scale at one scheduler
# width: `make smoke-determinism GOMAXPROCS=2`. CI runs it at 1, 2 and 8 so
# that a scheduling-dependent quantity cannot slip into the determinism
# contract on a host size nobody tried.
smoke-determinism:
	GOMAXPROCS=$(GOMAXPROCS) $(GO) test -count=1 -run 'Virtual' ./internal/eval/ ./internal/chaos/ .

# Real-socket transport smoke: the TCP transport (pool lifecycle, mux demux,
# reconnect, timeout taxonomy, frame cap, unencodable payloads), the binary
# codec, and the facade twin tests that demand identical rankings and message
# counts from simnet and TCP — all under the race detector. Then a guard that
# the wire has one codec: no non-test package but internal/core (whose
# snapshots are gob files) may import encoding/gob.
smoke-tcp:
	$(GO) test -race ./internal/transport/ ./internal/wire/ ./internal/fanout/
	$(GO) test -race -run 'TransportTwin' .
	@gob=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk '/ encoding\/gob( |$$)/ && $$1 != "github.com/spritedht/sprite/internal/core" { print $$1 }'); \
	[ -z "$$gob" ] || { echo "smoke-tcp: encoding/gob imported outside internal/core: $$gob"; exit 1; }

# Compressed-postings smoke: the block codec's property tests (compressed ≡
# plain twin, marshal round-trip, cursor snapshot semantics), the streaming
# scoring bit-identity tests, and a small-tier run of the postings benchmark
# checking compression ratio and identical rankings end to end.
smoke-postings:
	$(GO) test -race ./internal/index/
	$(GO) test -race -run 'Stream|Merge' ./internal/ir/
	$(GO) run ./cmd/spritebench -postings-tiers 5000 -postings-queries 100 postings

# Peer-driven placement smoke: the repair package's digest property tests,
# the join/leave handoff + anti-entropy protocol suites in core, the facade
# and REPL join/leave paths (race detector on all of those), plus the
# mass-churn determinism soak and the stranded-entry mutation test.
smoke-repair:
	$(GO) test -race ./internal/repair/
	$(GO) test -race -run 'Handoff|Leave|Repair|AntiEntropy' ./internal/core/
	$(GO) test -race -run 'JoinLeave' . ./cmd/spritesim/
	$(GO) test -run 'MassChurnSoak|StrandedEntry' ./internal/chaos/

# Similarity-retrieval smoke: the sketch package's property suite (projection
# determinism, quantized-cosine bounds, codec round-trip), the end-to-end
# similarity search and twin determinism tests, and a small-tier run of the
# similarity benchmark comparing sketch-routed search against flooding.
smoke-similarity:
	$(GO) test -race ./internal/sketch/
	$(GO) test -race -run 'Similar' ./internal/core/ ./internal/ir/ ./internal/eval/ .
	$(GO) run ./cmd/spritebench -similarity-tiers 1000 -similarity-peers 128 -similarity-queries 20 similarity

# Deterministic whole-system smoke: the chaos harness on its fixed seed set.
# Violations print a shrunk repro and a `-chaos.seed=N` replay recipe (see
# DESIGN.md § Correctness tooling). Kept under a minute for CI.
chaos-smoke:
	$(GO) test ./internal/chaos -run TestChaos -chaos.steps=150 -timeout 5m

# Native Go fuzz targets, 10s each: the text pipeline (never panic, stemming
# idempotent), the wire codec (payload round-trip, garbage never panics), and
# the postings blocks (decode of garbage, and write sequences through the
# encoded splice staying canonical and valid).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzStem -fuzztime=10s ./internal/text
	$(GO) test -run=NONE -fuzz=FuzzTokenize -fuzztime=10s ./internal/text
	$(GO) test -run=NONE -fuzz=FuzzAnalyzerTerms -fuzztime=10s ./internal/text
	$(GO) test -run=NONE -fuzz=FuzzCodec -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzBinaryProtocol -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzPostingsBlock -fuzztime=10s ./internal/index
	$(GO) test -run=NONE -fuzz=FuzzPostingsSplice -fuzztime=10s ./internal/index
	$(GO) test -run=NONE -fuzz='FuzzSketch$$' -fuzztime=10s ./internal/sketch
	$(GO) test -run=NONE -fuzz=FuzzSketchCodec -fuzztime=10s ./internal/sketch

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
