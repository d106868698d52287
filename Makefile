# CI entry points for the qwm repository. `make ci` is the gate a change
# must pass: vet, build, the targeted observability race suite, the full
# test suite under the race detector, the trace-export and ops-server
# lifecycle smokes, the HTTP service smoke (200 + schema-valid response,
# 429 backpressure under a flooded queue), the distributed-tracing smoke
# (two replicas, one traced request, merged cross-process trace +
# deterministic export), a smoke run of the STA-parallel, solver-kernel,
# observed-analyze, hot-path wide, incremental-reanalysis and
# warm-disk-service benchmarks (plus the dated JSON snapshot), a
# small-budget differential-verification sweep, a small fault-injection
# (chaos) sweep over every fault class, the incremental (ECO) edit-sequence
# differential, the service-path differential (wire bit-transparency,
# warm-disk restart, chaos through POST /analyze, trace determinism), and
# the remote-cache gates: the two-replica shared-tier smoke plus the
# kill/restart race tests — untraced and traced — (remote-smoke), the
# network-chaos differential (remote-chaos), and a bounded run of every fuzz
# target (fuzz-smoke).

GO ?= go

.PHONY: ci vet build test race race-obs trace-smoke trace-smoke-distributed leak-check service-smoke bench bench-full bench-json bench-compare verify verify-full chaos chaos-full eco eco-full service-verify remote-smoke remote-chaos fuzz-smoke

ci: vet build race-obs race trace-smoke trace-smoke-distributed leak-check service-smoke remote-smoke bench bench-json verify chaos eco service-verify remote-chaos fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector covers the concurrent layers (sta worker pool, mc
# samplers, qwm scratch pool) along with everything else.
race:
	$(GO) test -race ./...

# Targeted race pass over the concurrency-critical packages: the sta worker
# pool delivering concurrent StageEval events (now including the degradation
# ladder and its recover isolation), the sharded metrics registry, and the
# fault injector shared by every worker during chaos runs. Fast enough to
# run first, before the full race sweep.
race-obs:
	$(GO) test -race ./internal/sta/... ./internal/obs/... ./internal/faultinject/...

# Trace-export smoke: record a full decoder analysis, validate the exported
# Chrome trace (balanced spans, one eval span per work item, args intact)
# and assert the deterministic rendering is byte-identical at Workers 1
# and 8.
trace-smoke:
	$(GO) test -run 'TestTraceDecoderSmoke|TestTraceDeterministicWorkersByteIdentical' -count=1 ./internal/sta/

# Distributed-tracing smoke: replica A answers warm off replica B's cache
# plane and the flight-recorded trace must contain spans from BOTH
# processes (the merged cross-replica trace), plus the deterministic export
# must be byte-identical at engine Workers 1 and 8.
trace-smoke-distributed:
	$(GO) test -race -run 'TestDistributedTraceMergesPeerSpan|TestTraceDeterministicAcrossWorkers|TestTraceEnvelopeAndRecorder' -count=1 ./internal/service/

# Ops-server lifecycle gate: repeated Start/Shutdown cycles must join the
# serve goroutine and leak nothing.
leak-check:
	$(GO) test -run 'TestServerStartShutdownNoLeak' -count=1 ./internal/obs/

# HTTP service smoke: POST /analyze of a decoder deck returns 200 with a
# schema-valid v1 envelope (cold evaluates, warm reports 0 evaluations),
# and a deterministically flooded queue sheds with 429 + Retry-After.
service-smoke:
	$(GO) test -race -run 'TestAnalyzeSingle|TestAnalyzeErrors|TestBackpressure429' -count=1 ./internal/service/

# One-iteration smoke of the perf-critical benchmarks: the parallel STA
# engine at every worker width, the in-place linear-solver kernels, the
# observability-overhead comparison (bare vs observer vs metrics), the
# hot-path wide-netlist benchmark (reduction+memo off vs on), and the
# request front end: per-layer decode/parse/extract/preflight on the 6-bit
# decoder and 16x24 wide decks, plus the warmed in-process POST /analyze.
bench:
	$(GO) test -run '^$$' -bench 'STAParallel|SolverKernels' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'AnalyzeObserved|WarmCacheLookup|STAWide|AnalyzeIncremental|FrontEnd' -benchtime 1x -benchmem ./internal/sta/
	$(GO) test -run '^$$' -bench 'FrontEnd|ServiceWarm$$' -benchtime 1x -benchmem ./internal/service/

# Full benchmark sweep (regenerates every table/figure; slow).
bench-full:
	$(GO) test -run '^$$' -bench . -benchmem .

# Machine-readable benchmark snapshot: run the engine-level benchmarks
# (parallel STA, warm-cache lookup, observability overhead, and the
# hot-path wide-netlist off/on comparison) and convert the text stream into
# benchstat-compatible JSON at the repo root, stamped with today's date.
bench-json:
	{ $(GO) test -run '^$$' -bench 'STAParallel' -benchtime 1x -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'WarmCacheLookup|AnalyzeObserved|STAWide|AnalyzeIncremental|FrontEnd' -benchtime 1x -benchmem ./internal/sta/ ; \
	  $(GO) test -run '^$$' -bench 'ServiceWarmDisk|FrontEnd|ServiceWarm$$' -benchtime 1x -benchmem ./internal/service/ ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_$$(date +%F).json

# Advisory benchmark regression report between the two most recent dated
# snapshots (benchjson -compare). Never fails the build: the shared CI box
# makes wall-clock deltas indicative, not contractual. Usage with explicit
# files: make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json
bench-compare:
	@old="$(OLD)"; new="$(NEW)"; \
	if [ -z "$$old" ] || [ -z "$$new" ]; then \
	  set -- $$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -2); \
	  old=$$1; new=$$2; \
	fi; \
	if [ -z "$$old" ] || [ -z "$$new" ] || [ "$$old" = "$$new" ]; then \
	  echo "bench-compare: need two BENCH_*.json snapshots (have: $$old $$new)"; \
	else \
	  $(GO) run ./cmd/benchjson -compare -threshold 5 "$$old" "$$new" || true; \
	fi

# Small-budget differential verification: 25 seeded stage netlists checked
# QWM-vs-SPICE, plus cached/uncached and serial/parallel equivalence (and
# the sibling load-aliasing trap). Exits non-zero on any gate failure.
verify:
	$(GO) run ./cmd/verify -seed 1 -n 25 -tol 10 -o /dev/null

# The acceptance-criteria sweep (200 cases, ~20 s): full JSON distribution
# on stdout.
verify-full:
	$(GO) run ./cmd/verify -seed 1 -n 200 -tol 10

# Small fault-injection sweep: every generated case re-run under each fault
# class at rate 1, gating on completeness, same-seed determinism at Workers
# 1 and 8, and conservative (never-optimistic) degraded delays. Exits
# non-zero on any violated invariant.
chaos:
	$(GO) run ./cmd/verify -chaos -seed 1 -chaos-n 2 -o /dev/null

# The full chaos acceptance sweep (more cases, JSON report on stdout).
chaos-full:
	$(GO) run ./cmd/verify -chaos -seed 1 -chaos-n 8

# Incremental (ECO) gate: the randomized edit-sequence differential —
# incremental vs from-scratch bit equality across the feature matrix plus
# dirty-cone minimality — and the TierSpice cross-member identity pin from
# the class-memoization fix. Exits non-zero on any mismatch.
eco:
	$(GO) run ./cmd/verify -eco -seed 1 -eco-edits 4 -o /dev/null
	$(GO) test -run 'TestSpiceCrossMemberBitIdentity|TestEvalSpicePathCanonical' -count=1 ./internal/sta/

# The full ECO acceptance sweep (longer edit sequences, JSON on stdout).
eco-full:
	$(GO) run ./cmd/verify -eco -seed 1 -eco-edits 8

# Service-path differential: the HTTP/JSON front door must be bit-transparent
# relative to the in-process engine, a restarted server over a warm cache
# directory must answer bit-identically with a >=90% disk hit rate, and
# chaos requests through POST /analyze must stay deterministic, conservative
# and isolated from the analyzer pool. Exits non-zero on any violation.
service-verify:
	$(GO) run ./cmd/verify -service -o /dev/null

# Remote-cache smoke, under the race detector: two in-process replicas share
# one tier server (the fresh one must answer warm: zero evaluations, >=90%
# remote hits, bit-identical results), and concurrent analyses through a
# full memory→remote→disk chain survive the remote server being killed and
# restarted mid-run without leaking a goroutine or moving a bit.
remote-smoke:
	$(GO) test -race -run 'TestTwoReplicasShareTier|TestChainKillRestartRace|TestTracedGetMergesPeerSpan|TestTracedKillMidRequest' -count=1 ./internal/sta/remotecache/

# Remote-cache differential: each network fault class (net-latency,
# net-error, net-corrupt) at rate 0.2 must leave results bit-identical to a
# remote-disabled baseline, the circuit breaker must walk its exact
# deterministic trajectory against a dead peer, and a dead peer must cost at
# most the breaker threshold plus one probe per window. Exits non-zero on
# any violation.
remote-chaos:
	$(GO) run ./cmd/verify -remote -o /dev/null

# Fuzz smoke: each fuzz target runs for 10 s — the
# bordered-tridiagonal kernel's bit-identity with dense LU, the deck
# parser's card and value decoders (with the tokenizer differential), stage
# extraction against its string-keyed reference, and the POST /analyze
# envelope decoder against the two-pass reference. A failing input is saved
# under the package's testdata/fuzz and replayed by every later `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSolveBordered$$' -fuzztime 10s ./internal/la/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzParseValue$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzExtractStages$$' -fuzztime 10s ./internal/circuit/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 10s ./internal/service/
