# nlidb — build and verification entry points. Pure Go, no external deps.

GO ?= go

.PHONY: build test short race vet staticcheck chaos proc-chaos fuzz check bench-check bench-vec tables-check metrics-smoke cache-smoke plan-smoke overload-smoke trace-smoke session-smoke bench-cache bench-plan bench-columnar bench-overload bench-shard bench-obs bench-session bench-remote-shard

build:
	$(GO) build ./...

# Default verification: vet, the full test suite, and a -race pass over
# every package. The race pass runs -short: the handful of slow replay
# tests (experiments, mlsql training) gate on testing.Short() and would
# take >10 minutes under the race detector; everything concurrency-bearing
# — the gateway, cache, batch pool, chaos suite, executors — runs in full.
test: vet staticcheck
	$(GO) test ./...
	$(GO) test -race -short ./...

# Reduced suite: the chaos tests shrink to 30 queries per domain and the
# slowest experiment-replay tests are skipped.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# staticcheck when the toolchain has it; a no-op (with a note) otherwise,
# so `make test` works on bare containers without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# The seeded chaos suites under the race detector: engine-level fault
# injection (panics, errors, slowness at every pipeline site), the
# serving-layer surge/drain tests, the shard-kill/restore harness, and
# the concurrent-conversation suites (session store churn, shared
# dialogue managers).
chaos:
	$(GO) test -race -run 'Chaos|Surge|Drain|Hedge|Flight|Concurrent|Session' ./internal/resilient/ ./internal/server/ ./internal/shard/ ./internal/qcache/ ./internal/session/ ./internal/dialogue/ -count=1

# Real-process chaos: a coordinator with -remote-shards spawn:2 forks
# four actual cmd/nlidb children, the smoke SIGKILLs one replica of every
# shard under load, and asserts zero wrong answers, bounded supervisor
# recovery, and that no child outlives the coordinator. Deliberately a
# shell smoke, not a `go test`: it must exercise real fork/exec, real
# signals, and real sockets.
proc-chaos: build
	./scripts/proc_chaos_smoke.sh

# Short coverage-guided fuzz sessions over the SQL parser, the NL
# tokenizer, the cache-key normalizer, the planner, follow-up resolution,
# and the index lookup against its linear oracle (seed corpora always run
# as part of plain `make test`).
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sqlparse
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=$(FUZZTIME) ./internal/nlp
	$(GO) test -run='^$$' -fuzz=FuzzCacheKey -fuzztime=$(FUZZTIME) ./internal/qcache
	$(GO) test -run='^$$' -fuzz=FuzzPlanExec -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzFollowUp -fuzztime=$(FUZZTIME) ./internal/dialogue
	$(GO) test -run='^$$' -fuzz=FuzzLookupOracle -fuzztime=$(FUZZTIME) ./internal/invindex

# The benchmark is a module of its own (bench/go.mod), so `go vet ./...`
# and `go test ./...` at the root never compile it: a changed signature
# among the internal symbols bench/e2e imports shows up only here. Same
# environment as bench/run.sh; the tests include the ~25 s smoke run.
bench-check:
	cd bench && GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off $(GO) vet ./...
	cd bench && GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off $(GO) test ./...

# `go test` never runs a benchmark, so the executor's inner-loop benchmark
# (internal/plan BenchmarkVecScanAgg) would rot unseen: run every shape of
# it once. A few seconds, most of them building the 200k-row table.
bench-vec:
	$(GO) test -run '^$$' -bench VecScanAgg -benchtime 1x ./internal/plan

# The paper-reproduction tables (T1–T11, A1–A2, seed 1) must stay
# byte-identical to internal/experiments/testdata/tables_seed1.golden.
# Expect a few minutes.
tables-check:
	./scripts/tables_check.sh

# End-to-end scrape check: start cmd/nlidb with -metrics-addr, serve one
# question, and assert /metrics exposes every required family.
metrics-smoke: build
	./scripts/metrics_smoke.sh

# End-to-end cache check: serve the same question twice through cmd/nlidb
# and assert the repeat is a cache hit served without an execute span.
cache-smoke: build
	./scripts/cache_smoke.sh

# End-to-end planner check: serve a two-table equi-join question through
# cmd/nlidb and assert the -explain trace shows a HashJoin plan node and
# a plan-cache hit on the repeat.
plan-smoke: build
	./scripts/plan_smoke.sh

# End-to-end overload check: start cmd/nlidb -serve with a tiny admission
# ceiling, fire a curl surge, and assert requests were shed with 503 +
# Retry-After, the shed counter moved on /metrics, and a drain finishes.
overload-smoke: build
	./scripts/overload_smoke.sh

# End-to-end fleet-observability check: start cmd/nlidb -serve sharded,
# serve one scatter question, and assert its retained trace crosses the
# coordinator/replica boundary and /fleet, /slo, and /metrics agree.
trace-smoke: build
	./scripts/trace_smoke.sh

# End-to-end conversational-serving check: open a session over HTTP, ask
# a question plus a context-resolving follow-up, assert the session
# metric families are scraped, and walk the 404/410 protocol (end,
# expiry, unknown ID).
session-smoke: build
	./scripts/session_smoke.sh

# Answer-cache benchmark: cold/warm latency percentiles and serial-vs-
# parallel throughput, written to BENCH_cache.json.
bench-cache: build
	$(GO) run ./cmd/nlidb-bench -cache BENCH_cache.json

# Planner benchmark: nested-loop vs hash-join latency per query class on
# a 10k-row star schema, written to BENCH_plan.json. The nested-loop
# baseline sweeps 100M candidate pairs per class — expect a few minutes.
bench-plan: build
	$(GO) run ./cmd/nlidb-bench -plan BENCH_plan.json

# Columnar-execution benchmark: the row-at-a-time executor vs the
# vectorized columnar executor per query class on a 200k-row metrics
# table, results cross-checked row-for-row, written to
# BENCH_columnar.json.
bench-columnar: build
	$(GO) run ./cmd/nlidb-bench -columnar BENCH_columnar.json

# Overload benchmark: goodput and admitted-latency percentiles at 1×–10×
# offered load, with and without admission control, written to
# BENCH_overload.json. Expect a few minutes (3 reps per cell).
bench-overload: build
	$(GO) run ./cmd/nlidb-bench -overload BENCH_overload.json

# Sharding benchmark: N-shard scaling curve plus kill/restore goodput
# timelines on a 3×2 cluster, written to BENCH_shard.json.
bench-shard: build
	$(GO) run ./cmd/nlidb-bench -shard BENCH_shard.json

# Observability benchmark: per-engine latency percentiles plus the
# baseline-vs-instrumented overhead comparison, for the single gateway and
# for a 4-shard cluster with the full fleet stack on, written to
# BENCH_obs.json.
bench-obs: build
	$(GO) run ./cmd/nlidb-bench -obs BENCH_obs.json -shards 4

# Remote-shard benchmark: the closed-loop workload served by in-process
# clusters vs supervisor-launched fleets of real cmd/nlidb processes
# (the socket+wire tax per cluster width), plus SIGKILL/restore goodput
# timelines against real children, written to BENCH_remote_shard.json.
bench-remote-shard: build
	$(GO) run ./cmd/nlidb-bench -remote-shard BENCH_remote_shard.json

# Conversational-serving benchmark, run under the race detector on
# purpose: thousands of interleaved three-turn conversations served
# through the session store vs the stateless replay baseline, with
# warm-vs-cold follow-up percentiles and a zero-context-bleed assertion,
# written to BENCH_session.json.
bench-session: build
	$(GO) run -race ./cmd/nlidb-bench -session BENCH_session.json

check: build vet test race bench-check bench-vec tables-check proc-chaos overload-smoke
