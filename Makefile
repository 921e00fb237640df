# Tier-1 gate: `make ci` runs exactly what CI runs; a PR must keep it green.

GO ?= go

.PHONY: all build test vet perfbench-vet fmt fmt-check race fuzz-smoke bench bench-json bench-gate slo-gate ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second run repeats the service package: its cache's ordering rules
# (a flight is counted before its last key wakes a waiter) only show up
# as failures on repeated race runs. core, topk, algo, kset and delta
# share each dataset's lazily built scan order, dominator counts and
# k-skyband slot across concurrent queries. The root package is here
# because rrrd shares each algorithm's Solver, and its arena free-list,
# across concurrent requests (TestSolverConcurrentUse).
race:
	$(GO) test -race . ./internal/service/ ./internal/eval/ ./internal/shard/ ./internal/delta/ ./internal/wal/ ./internal/watch/ ./internal/trace/ ./internal/trace/export/ ./internal/core/ ./internal/topk/ ./internal/algo/ ./internal/kset/
	$(GO) test -race -count=10 ./internal/service/

# Fuzz smoke: a short budgeted run of each native fuzz target, catching
# decoder panics and non-canonical encodings before they reach a corpus,
# any input on which the skyband-pruned, sector-bisected 2-D sweep
# disagrees with the unfiltered one in its ranges, k-sets or k-border (for
# one k, and for several in one FindRangesMulti pass) or the unfiltered
# sweep's event order departs from a brute-force replay of its exchange
# rule, any on which the
# 2-D entry points (Solve, SolveInto, SolveBatch, algo.TwoDRRR, Profile2D)
# disagree, any on which the early-exit top-k scan disagrees with the
# full sort, any on which the dominator-count index disagrees with the
# pairwise count, and any on which Sample or SampleMulti departs from the
# K-SETr replay. One -fuzz pattern per invocation: go test rejects
# multiple fuzz targets in a single run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzFindRanges$$' -fuzztime 10s ./internal/sweep/
	$(GO) test -run '^$$' -fuzz FuzzFindRangesMulti -fuzztime 10s ./internal/sweep/
	$(GO) test -run '^$$' -fuzz FuzzTwoDRRR -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzTopK -fuzztime 10s ./internal/topk/
	$(GO) test -run '^$$' -fuzz FuzzDominators -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSample -fuzztime 10s ./internal/kset/

# Tier-1 benchmarks, 5 repetitions for benchstat-able variance. CI uploads
# bench.txt as an artifact so every PR leaves a perf data point to compare
# against. -benchmem feeds the exact allocs/op gate: BenchmarkSolveInto and
# BenchmarkCachedRepresentativeHTTP (./internal/service/) must stay at
# 0 allocs/op, and BenchmarkMutateStillExact and
# BenchmarkRepresentativeMiss2D hold rrrd's still-exact mutation and cache
# miss paths at their counts.
bench:
	$(GO) test -bench . -benchmem -count 5 -run '^$$' . ./internal/service/ ./internal/wal/ ./internal/watch/ | tee bench.txt

# Machine-readable perf artifact: BENCH_<short-sha>.json with per-benchmark
# ns/op, B/op, allocs/op means and the raw ns/op samples. Reuses bench.txt
# when present so CI converts the run it just made instead of re-running.
bench-json:
	@test -f bench.txt || $(MAKE) bench
	$(GO) run ./cmd/benchjson -in bench.txt -sha $$(git rev-parse --short HEAD)

# Perf-regression gate: compare bench.txt against the baseline (CI restores
# the latest main-branch run into bench-baseline/). Fails on a >25%
# significant ns/op regression OR any mean allocs/op increase (the alloc
# gate is exact: allocation counts are deterministic, so one extra
# allocation on a zero-alloc hot path fails CI). Passes with a notice when
# no baseline exists yet. BASELINE can be overridden for local what-if
# comparisons:
#   make bench-gate BASELINE=some/old/bench.txt
BASELINE ?= bench-baseline/bench.txt
bench-gate:
	$(GO) run ./cmd/benchgate -baseline $(BASELINE) -current bench.txt -threshold 25 -alpha 0.05

# Latency-SLO gate: drive a smoke-scale in-process rrrd through cold and
# warm request mixes and fail on a p99 over budget or a p99 regression vs
# the latest main-branch baseline (factor + noise-floor gated, so CI
# jitter can't flake it). Writes slo.json; CI restores the baseline into
# slo-baseline/ the way bench-gate restores bench-baseline/.
SLO_BASELINE ?= slo-baseline/slo.json
slo-gate:
	$(GO) run ./cmd/slogate -baseline $(SLO_BASELINE) -result slo.json

vet:
	$(GO) vet ./...

# perfbench is its own module (its go.mod replaces rrr with ../), so the
# ./... patterns above never compile it. Vetting it compiles it against
# this tree's internal packages without writing a binary, so a change to
# an API perfbench imports fails here instead of at the next benchmark.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

fmt:
	gofmt -w .

# Fails (with the offending files listed) when anything is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

ci: fmt-check vet perfbench-vet build test race fuzz-smoke

clean:
	$(GO) clean ./...
