# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race check chaos watch-stress perfbench-test lint cover bench bench-smoke telemetry-smoke recovery-smoke contention-smoke freshness-smoke fuzz experiments shapes examples clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Seeded chaos suite (docs/FAULTS.md): every engine over the
# reliable-delivery sublayer and the fault injector, under the race
# detector.
chaos:
	$(GO) test -race -run 'TestChaos|TestReliable|TestBackEdgeRecovers' -count 1 ./internal/cluster ./internal/comm ./internal/core ./internal/fault

# Timing-dependent watchdog tests, repeated under the race detector so an
# intermittent failure shows up before it reaches the plain test run.
watch-stress:
	$(GO) test -race -count=20 ./internal/watch
	$(GO) test -race -count=20 -run TestWatch ./internal/cluster

# The benchmark harness is a module of its own (perfbench/go.mod), which
# `go test ./...` at the root does not enter.
perfbench-test:
	cd perfbench && $(GO) test .

# The repository's own analyzer suite (docs/STATIC_ANALYSIS.md): five
# protocol-invariant checks that go vet cannot express.
lint:
	$(GO) run ./cmd/repllint ./...

# The pre-merge gate: compile, static checks, full test suite, the race
# detector, the chaos suite, the watchdog stress run, the benchmark
# harness's own tests, the protocol-invariant lint, the crash-recovery,
# contention- and freshness-observatory smokes, and the benchmark smoke
# gate.
check: build vet test race chaos watch-stress perfbench-test lint recovery-smoke contention-smoke freshness-smoke bench-smoke

cover:
	$(GO) test -cover ./...

# One benchmark iteration per paper artifact plus the micro-benchmarks.
bench:
	$(GO) test -run NONE -bench . -benchmem -benchtime 1x ./...

# Benchmark observatory (docs/BENCHMARKING.md): run the smoke suite with
# pprof capture into $(BENCH_DIR), then gate the fresh snapshot against
# the committed BENCH_smoke.json baseline. Thresholds here are wide —
# CI runners and loaded laptops are noisy; the tool's defaults are for
# deliberate same-machine before/after comparisons.
BENCH_DIR ?= bench-artifacts
bench-smoke:
	mkdir -p $(BENCH_DIR)
	$(GO) run ./cmd/replbench -suite smoke -telemetry -wal -benchjson $(BENCH_DIR)/BENCH_smoke.json -pprofdir $(BENCH_DIR)/pprof
	$(GO) run ./cmd/replbench -compare BENCH_smoke.json \
		-threshold 50 -latthreshold 400 -allocthreshold 100 -abortthreshold 25 -stalethreshold 25 \
		$(BENCH_DIR)/BENCH_smoke.json

# Cluster telemetry plane smoke (docs/OBSERVABILITY.md): two replnode
# processes stream telemetry over TCP to one repltop aggregator, whose
# -once -json snapshot must name both processes and their sites.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# Crash-recovery smoke (docs/DURABILITY.md): traced clusters run over
# per-site redo logs while a seeded schedule crashes a site; the -json
# counters must show the crash, the restart, and a nonzero redo replay.
recovery-smoke:
	./scripts/recovery_smoke.sh

# Contention-observatory smoke (docs/OBSERVABILITY.md): a seeded Zipfian
# hotspot run through `replbench -contend` must yield a non-empty heat
# table, a fully classified abort breakdown, a replexplain profile
# covering end-to-end latency within 5%, and byte-identical wait-for
# snapshots across same-seed runs.
contention-smoke:
	./scripts/contention_smoke.sh

# Freshness-observatory smoke (docs/OBSERVABILITY.md): a seeded lazy run
# through `replbench -fresh` must yield non-empty propagation waterfalls,
# certificate coverage of at least 95% of reads, stale certificates, and
# byte-identical canonical freshness summaries across same-seed runs.
freshness-smoke:
	./scripts/freshness_smoke.sh

FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz FuzzCompareTotalOrder -fuzztime $(FUZZTIME) ./internal/ts
	$(GO) test -fuzz FuzzTimestampCompare -fuzztime $(FUZZTIME) ./internal/ts
	$(GO) test -fuzz FuzzBackedgeComputation -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -fuzz FuzzReliableReorder -fuzztime $(FUZZTIME) ./internal/comm
	$(GO) test -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/wal

# Regenerate every figure/table of the paper's evaluation (§5).
experiments:
	$(GO) run ./cmd/replbench -exp all -scale medium

# Mechanically assert the paper's shape claims (takes several minutes).
shapes:
	REPRO_SHAPES=1 $(GO) test ./internal/harness -run TestPaperShapes -v -timeout 30m

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/anomaly
	$(GO) run ./examples/warehouse
	$(GO) run ./examples/telecom

clean:
	$(GO) clean ./...
