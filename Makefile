# Development targets. `make check` is what CI runs.

GO ?= go

.PHONY: check vet lint lint-quant baseline build test race soak chaos bench bench-json bench-guard quick

check: vet lint lint-quant build race bench-guard

# perfbench is a nested module that the root ./... skips; build and vet
# it too, so a change that breaks it fails here and not in a benchmark run.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

# grinchvet: the repo's own static analyzer (secret-dependent accesses,
# determinism, dead exports). Fails on any finding not in
# grinchvet.baseline.
lint:
	$(GO) run ./cmd/grinchvet ./...

# The quantitative gate: every leakage finding must carry a resolved
# bits-per-observation estimate (baseline-checked in quant mode), and
# the static model must agree with the measured convergence of the
# committed Fig. 3 fixture trace within tolerance. Drift in either the
# analyzer's geometry model or the attack core fails the build.
lint-quant:
	$(GO) run ./cmd/grinchvet -quant -quant-check internal/obs/report/testdata/trace.jsonl ./...

# Accept the current finding set as the new baseline (review the diff!).
baseline:
	$(GO) run ./cmd/grinchvet -quant -write-baseline ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The campaign pool, the coordinator and its workers share state across
# goroutines, so the race detector is the gate that keeps them honest.
race:
	$(GO) test -race ./...

# Opt-in node-churn soak: coordinator restart, worker kill/respawn and
# chaos transports in one in-process test (see soak_test.go).
soak:
	$(GO) test -race -tags soak -run TestChurnSoak -count=1 ./internal/campaignd

# The full chaos drill: the soak above plus a process-level run with
# -race binaries, SIGKILLed workers and a restarted coordinator.
chaos:
	scripts/ci_chaos.sh

# Serial-vs-pooled campaign execution of a small Table I grid.
bench:
	$(GO) test -bench BenchmarkTable1Campaign -benchtime 3x -run XXX ./internal/experiments/

# Machine-readable benchmark baseline: a fixed small benchmark set
# (attack hot path, full-key recovery on each cipher, campaign
# orchestration, and the Table II platform race on the simulation
# kernel and NoC) parsed into
# BENCH_baseline.json via cmd/benchjson, with -benchmem so every entry
# carries B/op and allocs/op next to ns/op. Values are machine-dependent;
# the committed file records the reference machine's numbers. Override
# BENCH_OUT to write elsewhere (the regression guard measures into a
# scratch file instead of clobbering the baseline).
BENCH_OUT ?= BENCH_baseline.json
bench-json:
	$(GO) test -bench 'BenchmarkAttackNilTracer$$|BenchmarkAttackNilMetrics$$|BenchmarkAttackMetrics$$|BenchmarkTable1$$|BenchmarkTable1Campaign$$|BenchmarkExtension_FullRecoveryByCipher$$|BenchmarkTable2$$|BenchmarkPlatformSession$$' \
		-benchtime 3x -benchmem -run XXX . ./internal/experiments/ | \
		$(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# Perf-regression gate: re-measure the benchmark set and fail on any
# benchmark more than BENCH_TOLERANCE_PCT (default 25) percent slower
# than the committed BENCH_baseline.json.
bench-guard:
	scripts/ci_bench_guard.sh

# Fast smoke of the full paper reproduction.
quick:
	$(GO) run ./cmd/experiments -quick all
