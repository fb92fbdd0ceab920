# Container-based reproducibility framework for stochastic process algebra.
# Stdlib-only Go; no network access needed for any target.

GO ?= go

.PHONY: all build vet test race cpu-sweep bench-smoke bench bench-snapshot bench-compare bench-allocs bench-baseline bench-build repro chaos chaos-cancel chaos-hub chaos-cluster conformance conformance-deep fuzz fuzz-smoke goldens clean

# Solve-path benchmarks recorded in BENCH_baseline.json (docs/PERFORMANCE.md).
# Which of them benchcmp actually gates is its -gate regex; the rest are
# reported with a baseline reference but never fail the build.
# -benchmem is part of the contract: benchcmp compares B/op and allocs/op
# alongside ns/op, which catches scratch-buffer regressions timing noise
# absorbs.
BENCH_GATED = ^(BenchmarkTransientSeries|BenchmarkTransientDense|BenchmarkFirstPassageCDF|BenchmarkFamilySteadyStates|BenchmarkAssembleRows|BenchmarkVecMulScatter|BenchmarkAssemblyReuse|BenchmarkPerturbationSweep|BenchmarkSteadyStateStiff|BenchmarkExplore|BenchmarkExploreSmall|BenchmarkGPEPAFluidDerivative)$$
BENCH_PKGS  = ./internal/ctmc ./internal/numeric/sparse ./internal/robustness ./internal/pepa/derive ./internal/gpepa

all: build vet test

build:
	$(GO) build ./...

# vet also fails when any tracked Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fan-out width sweep (CI test job): every internal/par fan-out runs
# min(GOMAXPROCS, n) goroutines, so running the packages that fan out
# under -cpu 1,4 checks that no result depends on the width — the
# goldens, digests and bit-identity tests must pass at both.
cpu-sweep:
	$(GO) test -count=1 -cpu 1,4 . ./internal/core ./internal/par ./internal/ssa ./internal/pepa/sim ./internal/gpepa ./internal/biopepa ./internal/robustness ./internal/experiment

# The end-to-end benchmark (benchmark/) is its own Go module, so the root
# `go test ./...` skips it. Its tests run every workload once and pin the
# seed-1 solve and sweep values in benchmark/testdata/reference.json at
# 1e-9 — the end-to-end exactness check for solver-path changes.
bench-smoke:
	cd benchmark && $(GO) test ./...

# One benchmark per paper table/figure plus ablations and the fan-out benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Tier-1 benchmarks plus an instrumented full repro run whose metrics and
# span snapshot lands in BENCH_<date>.json (see docs/OBSERVABILITY.md).
bench-snapshot:
	$(GO) test -bench=. -benchtime=1x ./internal/ctmc ./internal/hub ./internal/pepa/... ./internal/gpepa
	$(GO) run ./cmd/repro -metrics-out BENCH_$$(date +%Y%m%d).json > /dev/null
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

# The three targets below share one benchmark run. Its output goes through
# bench_gated.txt rather than a pipe, so a benchmark that fails fails the
# target instead of silently dropping its row from the comparison or from
# a re-recorded baseline.
BENCH_RUN = $(GO) test -run XXX -bench '$(BENCH_GATED)' -benchmem -benchtime 10x -count 3 $(BENCH_PKGS) > bench_gated.txt

# Compare the solve-path benchmarks against the committed baseline; fails
# when a gated benchmark is >20% slower or >25% more B/op or allocs/op
# (docs/PERFORMANCE.md). Advisory in CI: ns/op drifts between machines.
bench-compare:
	$(BENCH_RUN)
	$(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -out bench_compare.json < bench_gated.txt

# Blocking allocation gate (CI test job): fails when any recorded row's
# B/op or allocs/op exceeds 1.25x its baseline (any allocation, for a row
# recorded at 0, such as BenchmarkGPEPAFluidDerivative), whatever ns/op
# does. -gate . covers every row, and -threshold 1e6 is an ns/op ratio no
# run reaches, so only B/op and allocs/op can fail it.
bench-allocs:
	$(BENCH_RUN)
	$(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -gate . -threshold 1e6 -allocs-threshold 1.25 < bench_gated.txt

# Re-record BENCH_baseline.json after an intentional performance change.
bench-baseline:
	$(BENCH_RUN)
	$(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -update -note "make bench-baseline" < bench_gated.txt

# Staged-build benchmarks (docs/PERFORMANCE.md): cold (all stages execute)
# vs warm (only the edited last stage executes). Informational — new
# families are reported against the recorded baseline without gating, and
# the warm/cold ratio itself is asserted by the benchmarks' stage counts.
# The output goes through bench_build.txt rather than a pipe, so a
# benchmark that fails (a broken stage cache) fails the target.
bench-build:
	$(GO) test -run XXX -bench '^BenchmarkBuildStaged' -benchtime 3x -count 3 ./internal/runtime > bench_build.txt
	$(GO) run ./cmd/benchcmp -baseline BENCH_baseline.json -gate '^$$' -out bench_build.json < bench_build.txt

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
# studies and ensembles mid-flight, resume the ensembles from their
# checkpoints, and drain the hub under slow in-flight requests — all
# under -race.
chaos-cancel:
	$(GO) test -race -count=1 \
		-run 'TestStudy|TestEnsemble|TestMeanOfSim|TestMeanSSA|TestShutdown|TestSave|TestLoad' \
		./internal/robustness ./internal/pepa/sim ./internal/gpepa ./internal/biopepa ./internal/hub
	$(GO) test -race -count=1 ./internal/par ./internal/checkpoint ./internal/ssa ./internal/fsatomic ./internal/sigctx ./internal/runctx

# Durability/self-healing chaos lane (docs/RESILIENCE.md): WAL crash-point
# recovery, the store-state oracle, compaction after in-memory rot (of a
# store's own blobs and of blobs an older release named by digest alone),
# resumable chunk-verified manifest and layer pulls under seeded
# truncation, response and upload caps, scrub/quarantine/repair, and
# admission-control shedding — all under -race.
# Fault plans and jitter are seeded, so failures replay exactly.
chaos-hub:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestWAL|TestScrub|TestRepush|TestQuarantine|TestIdempotentPut|TestLoadReplays|TestLoadReencodes|TestLoadParentStateDir|TestReopenKeepsEachBuildHostsBytes|TestStoreStateOracle|TestCompactionAfterRotKeepsVerifiedBlob|TestCompactionAfterRotKeepsLegacyBlob|TestPull|TestSameImageFromTwoBuildHosts|TestServeBlobRange|TestParseRange|TestChunkDigests|TestResponseCap|TestUploadCap|TestAdmission|TestTokenBucket|TestClientHonorsRetryAfter|TestClientThrottleCap' \
		./internal/hub
	$(GO) test -race -count=1 ./internal/fsatomic ./internal/faultinject

# Replicated-cluster chaos lane (docs/RESILIENCE.md): rendezvous
# placement, per-peer failover, hinted handoff, read repair after
# bit-rot, rebalancing on join/leave, per-peer breaker isolation, and the
# hinted-handoff journal fuzz seeds — all under -race. Fault plans are
# seeded, so failures replay exactly.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/hub/cluster
	$(GO) test -race -count=1 \
		-run 'TestThrottleFailover|TestHint|FuzzHintJournalRecords' \
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
# Every Fuzz* target is listed here and in fuzz-smoke; where a package
# holds two, the pattern is anchored so -fuzz matches exactly one.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/pepa
	$(GO) test -fuzz=FuzzExplore -fuzztime=30s ./internal/pepa/derive
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/biopepa
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/gpepa
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/recipe
	$(GO) test -fuzz=FuzzRun -fuzztime=30s ./internal/shellenv
	$(GO) test -fuzz=FuzzUnmarshalTar -fuzztime=30s ./internal/vfs
	$(GO) test -fuzz='^FuzzUnmarshal$$' -fuzztime=30s ./internal/image
	$(GO) test -fuzz='^FuzzManifest$$' -fuzztime=30s ./internal/image
	$(GO) test -fuzz='^FuzzHintJournalRecords$$' -fuzztime=30s ./internal/hub
	$(GO) test -fuzz='^FuzzWALReplay$$' -fuzztime=30s ./internal/hub
	$(GO) test -fuzz=FuzzAssembleRows -fuzztime=30s ./internal/numeric/sparse

# CI smoke lane: a few seconds per target over the checked-in seed corpora,
# enough to catch freshly introduced panics without stalling the pipeline.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/pepa
	$(GO) test -fuzz=FuzzExplore -fuzztime=5s ./internal/pepa/derive
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/biopepa
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/gpepa
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/recipe
	$(GO) test -fuzz=FuzzRun -fuzztime=5s ./internal/shellenv
	$(GO) test -fuzz=FuzzUnmarshalTar -fuzztime=5s ./internal/vfs
	$(GO) test -fuzz='^FuzzUnmarshal$$' -fuzztime=5s ./internal/image
	$(GO) test -fuzz='^FuzzManifest$$' -fuzztime=5s ./internal/image
	$(GO) test -fuzz='^FuzzHintJournalRecords$$' -fuzztime=5s ./internal/hub
	$(GO) test -fuzz='^FuzzWALReplay$$' -fuzztime=5s ./internal/hub
	$(GO) test -fuzz=FuzzAssembleRows -fuzztime=5s ./internal/numeric/sparse

# Rewrite the golden experiment outputs after an intentional change.
goldens:
	$(GO) test -run TestGolden -update .

clean:
	rm -rf out
	$(GO) clean -testcache
