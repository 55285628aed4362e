GO ?= go

.PHONY: all build test test-checked race vet fmt-check bench bench-gate fleet-bench fleet-mem telemetry-bench check-bench obsv-bench obsv-smoke trace-bench trace-smoke corpus-bench corpus-smoke jobs-smoke jobs-bench e2e-selftest e2e-bench fuzz-short fuzz-corpus-short fuzz-rand-short clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite again with the runtime invariant checker attached to
# every device built with a nil Checks config — each existing test
# doubles as an energy-conservation / lifecycle-legality check.
test-checked:
	EANDROID_CHECK=1 $(GO) test -count=1 ./...

# The fleet runner is the only concurrent code in the repo; the rest of
# the simulation is single-threaded by design (telemetry recorders are
# per-device and single-goroutine, so they ride the same gate). Race-
# cleanliness of internal/fleet (and of the packages that drive it) is
# an acceptance gate for every PR that touches concurrency.
race:
	$(GO) test -race -count=1 ./internal/fleet/... ./internal/telemetry/... ./internal/experiments/... ./internal/obsv/... ./internal/scenario/... ./internal/corpus/... ./internal/jobs/... ./internal/serveutil/... ./internal/trace/... .

vet:
	$(GO) vet ./...

# Fails if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -run NONE -bench . -benchmem . ./internal/sim ./internal/hw ./internal/telemetry

# Perf regression gate: rerun the fleet, telemetry, check, obsv, trace,
# corpus and jobs studies at the shape recorded in the committed
# BENCH_*.json artifacts and fail on any >15% wall-clock regression (plus
# the studies' own gates).
bench-gate:
	$(GO) run ./cmd/benchsuite -benchcmp

# Regenerate the BENCH_fleet.json scaling artifact (wall times,
# bytes/device, device-sim-hours/sec).
fleet-bench:
	$(GO) run ./cmd/benchsuite -fleet 64 -workers 8 -shards 8

# Memory-budget study: a 100k-device heterogeneous population fleet down
# the streaming path must finish inside a constant peak-heap budget
# (256 MiB growth) — proof the accumulator is O(workers+window), not
# O(devices).
fleet-mem:
	$(GO) run ./cmd/benchsuite -fleet-mem 100000

# Regenerate the BENCH_telemetry.json overhead artifact (and enforce the
# enabled <= 10% / disabled <= 1% gates).
telemetry-bench:
	$(GO) run ./cmd/benchsuite -telemetry

# Regenerate the BENCH_check.json invariant-checker overhead artifact
# (and enforce the passive-checks <= 5% gate).
check-bench:
	$(GO) run ./cmd/benchsuite -check

# Regenerate the BENCH_obsv.json observability overhead artifact (and
# enforce the obsv-off <= 1% gate).
obsv-bench:
	$(GO) run ./cmd/benchsuite -obsv

# End-to-end smoke of the live observability plane: an ephemeral-port
# server over a real attack run (healthz/readyz, /metrics parses, one
# SSE tick, clean shutdown) plus the eandroid-sim -serve path.
obsv-smoke:
	$(GO) test -run 'TestServerSmoke|TestServerFleetEndpoints' -count=1 -v ./internal/obsv
	$(GO) test -run 'TestServeFlag' -count=1 -v ./cmd/...

# Regenerate the BENCH_trace.json causal-span tracing overhead artifact
# (and enforce the trace-off <= 1% / every-device-traced <= 10% gates).
trace-bench:
	$(GO) run ./cmd/benchsuite -trace

# End-to-end smoke of the causal span subsystem: one traced fleet job
# over HTTP must yield a trace.json artifact that parses as Chrome
# trace JSON and forms a single rooted span tree whose root threads
# through the job status, the live /trace feed, and the /metrics RED
# exemplars — plus the stalled-subscriber drop test on the live trace
# stream, repeated under -race so a scheduling-dependent flake shows.
trace-smoke:
	$(GO) test -run 'TestTraceSmoke|TestGoldenWorkerIndependence' -count=1 -v ./internal/jobs
	$(GO) test -race -run 'TestTraceStreamStalledSubscriber' -count=20 ./internal/obsv

# Regenerate the BENCH_corpus.json scenario-corpus artifact: every
# (archetype x attack-variant) cell over 40 seeded reps, and enforce the
# interval gates (benign window-FP Wilson upper <= 2%, attack detection
# Wilson lower >= 90%, zero invariant violations).
corpus-bench:
	$(GO) run ./cmd/benchsuite -corpus

# Two-cell, three-rep corpus smoke (one benign, one attack cell): fast
# CI proof that generation, replay and aggregation still work; the
# interval gates are advisory at this scale but violations still fail.
corpus-smoke:
	$(GO) run ./cmd/benchsuite -corpus -reps 3 -corpus-cells 2 -corpus-horizon 1h -out ""

# End-to-end smoke of the jobs control plane under -race: concurrent
# HTTP submit/scrape with enforced 429 backpressure, cache byte-identity
# over HTTP, and mid-job cancellation (the heavy load tests), plus the
# every-CLI -serve-jobs path and the eandroid-serve daemon.
jobs-smoke:
	$(GO) test -race -count=1 -run 'TestLoad|TestJobSSEStream|TestQueueCancelWhileQueued' -v ./internal/jobs
	$(GO) test -count=1 -run 'TestServeJobsFlag|TestServeAndStop|TestJobsPlaneServes' ./cmd/... ./internal/serveutil

# Regenerate the BENCH_jobs.json cache-study artifact: one scenario job
# per corpus cell submitted cold then warm, gated at cached-batch
# speedup >= 50x.
jobs-bench:
	$(GO) run ./cmd/benchsuite -jobs

# Self-test of the end-to-end benchmark (its own module under e2ebench/):
# tiny sizes print every declared metric, BENCHMARK.json matches the
# program, and corrupted references fail the correctness gate. ~3 s.
e2e-selftest:
	cd e2ebench && $(GO) test .

# Full end-to-end benchmark: every workload of BENCHMARK.json, one after
# another, at the program's default run length (pass-through flags such
# as --seconds 30 go to e2ebench/run.sh directly).
e2e-bench:
	bash e2ebench/run.sh --workload all

# 30-second randomized invariant hunt (the CI smoke; run longer locally
# with -fuzztime).
fuzz-short:
	$(GO) test -run NONE -fuzz FuzzInvariants -fuzztime 30s ./internal/check

# 30-second randomized corpus hunt: arbitrary (cell, seed, horizon)
# scripts must conserve energy and end lifecycle-clean.
fuzz-corpus-short:
	$(GO) test -run NONE -fuzz FuzzCorpus -fuzztime 30s ./internal/corpus

# 30-second hunt for any seed or stream length where the corpus's lazy
# random source diverges from math/rand's.
fuzz-rand-short:
	$(GO) test -run NONE -fuzz FuzzExactSource -fuzztime 30s ./internal/corpus

clean:
	$(GO) clean ./...
