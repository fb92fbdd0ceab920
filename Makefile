# Container-based reproducibility framework for stochastic process algebra.
# Stdlib-only Go; no network access needed for any target.

GO ?= go

.PHONY: all build vet test race bench-smoke bench bench-snapshot bench-compare bench-baseline bench-scaling bench-sweep bench-build repro chaos chaos-cancel chaos-hub chaos-cluster conformance conformance-deep fuzz fuzz-smoke goldens clean

# Solve-path benchmarks recorded in BENCH_baseline.json (docs/PERFORMANCE.md).
# Which of them benchcmp actually gates is its -gate regex; the rest are
# reported with a baseline reference but never fail the build.
# -benchmem is part of the contract: benchcmp compares allocs/op alongside
# ns/op, which catches scratch-buffer regressions timing noise absorbs.
BENCH_GATED = ^(BenchmarkTransientSeries|BenchmarkTransientWorkers|BenchmarkFirstPassageCDF|BenchmarkToCSR|BenchmarkVecMulParallel|BenchmarkAssemblyReuse|BenchmarkPerturbationSweep|BenchmarkSteadyStateStiff)$$
BENCH_PKGS  = ./internal/ctmc ./internal/numeric/sparse ./internal/robustness

# Sweep-throughput benchmarks (ISSUE 9): assembly-plan reuse, the family-
# backed perturbation sweep, and the stiff steady-state ladder. Reported
# against the baseline without gating — the non-blocking CI lane.
BENCH_SWEEP = ^(BenchmarkAssemblyReuse|BenchmarkPerturbationSweep|BenchmarkSteadyStateStiff)$$

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (benchmark/) is its own Go module, so the root
# `go test ./...` skips it. Its tests run every workload once and pin the
# seed-1 solve and sweep values in benchmark/testdata/reference.json at
# 1e-9 — the end-to-end exactness check for solver-path changes.
bench-smoke:
	cd benchmark && $(GO) test ./...

# One benchmark per paper table/figure plus ablations and parallel scaling.
bench:
	$(GO) test -bench=. -benchmem ./...

# Tier-1 benchmarks plus an instrumented full repro run whose metrics and
# span snapshot lands in BENCH_<date>.json (see docs/OBSERVABILITY.md).
bench-snapshot:
	$(GO) test -bench=. -benchtime=1x ./internal/ctmc ./internal/hub ./internal/pepa/... ./internal/gpepa
	$(GO) run ./cmd/repro -metrics-out BENCH_$$(date +%Y%m%d).json > /dev/null
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

# Compare the solve-path benchmarks against the committed baseline; fails
# when a gated benchmark is >20% slower or >25% more allocs/op
# (docs/PERFORMANCE.md).
bench-compare:
	$(GO) test -run XXX -bench '$(BENCH_GATED)' -benchmem -benchtime 10x -count 3 $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -out bench_compare.json

# Re-record BENCH_baseline.json after an intentional performance change.
bench-baseline:
	$(GO) test -run XXX -bench '$(BENCH_GATED)' -benchmem -benchtime 10x -count 3 $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -update -note "make bench-baseline"

# Short-mode parallel-scaling sweep: run only the workers=N families and
# fail when any worker count is slower than workers=1 beyond the scaling
# threshold, within this run (no committed baseline involved, so the gate
# is portable across machines; docs/PERFORMANCE.md).
bench-scaling:
	$(GO) test -run XXX -bench '^BenchmarkTransientWorkers$$' -benchmem -benchtime 10x -count 3 ./internal/ctmc \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -gate '^$$' -out bench_scaling.json

# Sweep-throughput lane (docs/PERFORMANCE.md): assembly-plan reuse vs cold
# CSR assembly, the family-backed perturbation sweep, and the stiff
# steady-state ladder with its Krylov rung.
# Non-blocking: everything is reported against the baseline but nothing is
# gated ('-gate ^$'), so CI surfaces drift without failing the build while
# the cache's hit pattern still settles across machine profiles.
bench-sweep:
	$(GO) test -run XXX -bench '$(BENCH_SWEEP)' -benchmem -benchtime 10x -count 3 $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -gate '^$$' -out bench_sweep.json

# Staged-build benchmarks (docs/PERFORMANCE.md): cold (all stages execute)
# vs warm (only the edited last stage executes). Informational — new
# families are reported against the recorded baseline without gating, and
# the warm/cold ratio itself is asserted by the benchmarks' stage counts.
bench-build:
	$(GO) test -run XXX -bench '^BenchmarkBuildStaged' -benchtime 3x -count 3 ./internal/runtime \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -gate '^$$' -out bench_build.json

# Regenerate every table and figure of the paper into ./out.
repro:
	$(GO) run ./cmd/repro -outdir out

# Chaos suite: the fault-injection round trips (fixed seeds, so failures
# replay exactly), then the Fig 6 pulls under a seeded fault plan.
chaos:
	$(GO) test -count=1 -run 'TestChaos|TestBreaker|TestClassify|TestValidationMatrix|TestPushAllPartial|TestFormatMatrixPartial' ./internal/hub ./internal/core ./cmd/repro
	$(GO) test -count=1 ./internal/faultinject
	$(GO) run ./cmd/repro -only chaos -chaos-seed 42

# Cancellation/checkpoint chaos lane (docs/RESILIENCE.md): interrupt
# studies and ensembles mid-flight, resume them from their checkpoints,
# and drain the hub under slow in-flight requests — all under -race.
chaos-cancel:
	$(GO) test -race -count=1 \
		-run 'TestStudy|TestEnsemble|TestMeanOfSim|TestShutdown|TestSave|TestLoad' \
		./internal/robustness ./internal/pepa/sim ./internal/gpepa ./internal/hub
	$(GO) test -race -count=1 ./internal/par ./internal/checkpoint ./internal/fsatomic ./internal/sigctx ./internal/runctx

# Durability/self-healing chaos lane (docs/RESILIENCE.md): WAL crash-point
# recovery, resumable chunk-verified manifest and layer pulls under seeded
# truncation, response and upload caps, scrub/quarantine/repair, and
# admission-control shedding — all under -race.
# Fault plans and jitter are seeded, so failures replay exactly.
chaos-hub:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestWAL|TestScrub|TestRepush|TestQuarantine|TestIdempotentPut|TestLoadReplays|TestLoadReencodes|TestPull|TestSameImageFromTwoBuildHosts|TestServeBlobRange|TestParseRange|TestChunkDigests|TestResponseCap|TestUploadCap|TestAdmission|TestTokenBucket|TestClientHonorsRetryAfter|TestClientThrottleCap' \
		./internal/hub
	$(GO) test -race -count=1 ./internal/fsatomic ./internal/faultinject

# Replicated-cluster chaos lane (docs/RESILIENCE.md): rendezvous
# placement, per-peer failover, hinted handoff, read repair after
# bit-rot, rebalancing on join/leave, per-host breaker scoping, and the
# hinted-handoff journal fuzz seeds — all under -race. Fault plans are
# seeded, so failures replay exactly.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/hub/cluster
	$(GO) test -race -count=1 \
		-run 'TestBreakerForScopedPerHost|TestBreakerChaosFailingPeerDoesNotRejectHealthyPeer|TestThrottleFailover|TestHint|FuzzHintJournalRecords' \
		./internal/hub
	$(GO) test -race -count=1 -run 'TestCluster|TestServePeerFaultTargeting' ./cmd/schub

# Cross-solver conformance sweep (see docs/TESTING.md). The default slice
# matches CI; the deep sweep widens the model window and runs the slow
# fluid-vs-SSA ensemble on every model index.
conformance:
	$(GO) test -count=1 ./internal/conformance -conformance.n=25 -conformance.seed=1

conformance-deep:
	$(GO) test -count=1 -timeout 30m ./internal/conformance -conformance.n=200 -conformance.seed=1 -conformance.deep

# Run each fuzz target briefly (seeds always run under plain `make test`).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/pepa
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/biopepa
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/gpepa
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/recipe
	$(GO) test -fuzz=FuzzRun -fuzztime=30s ./internal/shellenv
	$(GO) test -fuzz=FuzzUnmarshalTar -fuzztime=30s ./internal/vfs
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/image
	$(GO) test -fuzz=FuzzHintJournalRecords -fuzztime=30s ./internal/hub

# CI smoke lane: a few seconds per target over the checked-in seed corpora,
# enough to catch freshly introduced panics without stalling the pipeline.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/pepa
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/gpepa
	$(GO) test -fuzz=FuzzUnmarshalTar -fuzztime=5s ./internal/vfs
	$(GO) test -fuzz=FuzzHintJournalRecords -fuzztime=5s ./internal/hub

# Rewrite the golden experiment outputs after an intentional change.
goldens:
	$(GO) test -run TestGolden -update .

clean:
	rm -rf out
	$(GO) clean -testcache
