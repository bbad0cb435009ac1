# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench-all perfbench check chaos crashchaos report examples fuzz lint lint-selfcheck lint-perf ci clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Vet, catlint, plus the race-checked hot packages: the categorizer's worker
# pool, the relation's column snapshots and conjunct-bitmap cache, and the
# serving path (singleflight tree cache, snapshot-swapped workload stats,
# bounded session table, admission limiter, fault injector).
check: lint
	go test -race ./internal/category ./internal/relation ./internal/sqlparse \
		./internal/treecache ./internal/server ./internal/resilience/... .

# catlint (DESIGN.md §11): the project-specific static-analysis suite. Every
# check mechanizes an invariant a past PR broke and then fixed by hand. Use
# `go run ./cmd/catlint -json ./...` for machine-readable diagnostics and
# `go run ./cmd/catlint -list` for the check inventory.
lint:
	gofmt -l . | grep . && exit 1 || true
	go vet ./...
	go run ./cmd/catlint ./...

# Self-check: catlint must exit non-zero on the seeded-violation fixtures
# (the go tool's ... wildcard skips testdata, so the fixture packages are
# enumerated outright) and its own fixture tests must pass.
lint-selfcheck:
	@if go run ./cmd/catlint $$(find internal/lint/testdata/src -name '*.go' \
		| xargs -n1 dirname | sort -u | sed 's|^|./|') >/dev/null; then \
		echo "catlint failed to flag the seeded fixture violations" >&2; exit 1; \
	else echo "catlint flags the seeded fixtures: ok"; fi
	go test ./internal/lint

# Perf gate: the interprocedural passes (call graph + effect summaries,
# DESIGN.md §16) must keep a full-tree catlint run under 60 seconds, so the
# suite stays cheap enough to sit in every CI run. Builds the binary first so
# the timing measures analysis, not compilation.
lint-perf:
	@go build -o catlint ./cmd/catlint
	@start=$$(date +%s); ./catlint -format=github ./... || exit 1; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "catlint full tree: $${elapsed}s"; \
	if [ $$elapsed -ge 60 ]; then \
		echo "catlint took $${elapsed}s, budget is 60s" >&2; exit 1; \
	fi
	@rm -f catlint

# Everything CI runs, in CI's order.
ci:
	./ci.sh

# The fault-injection chaos suite (DESIGN.md §10) under the race detector:
# seeded latency/stall/panic faults at every named site while 8 workers
# hammer the serving path; asserts only 200/499/503/504 escape, cache hits
# are never degraded trees, and nothing leaks after the drain.
chaos:
	go test -race -count=1 -run 'TestChaos' -v ./internal/server

# The crash-recovery chaos suite (DESIGN.md §15) under the race detector:
# the full durable-store test set — every-injection-point crash/recover
# sweeps, double crashes during recovery, byte-granular WAL truncation, WAL
# and codec fuzz seeds — plus the CRASHCHAOS-gated scale runs: a 100k-row
# ingest killed at sampled points per fault site, and the 1.7M-row reopened
# store answering a selective Select without loading the segments into RAM.
crashchaos:
	CRASHCHAOS=1 go test -race -count=1 -timeout=30m -v \
		-run 'TestCrashChaos|TestRecovery|TestScaleLazySelect|Fuzz' \
		./internal/relation/durable

# Every benchmark in the repo (one per table/figure of the paper; see
# EXPERIMENTS.md).
bench-all:
	go test -bench=. -benchmem ./...

# The serving benchmark (perfbench/README.md, declared by BENCHMARK.json):
# every workload, untraced then traced, built from this checkout.
perfbench:
	bash perfbench/all.sh --seed 1 --seconds 20

# The full formatted evaluation report at paper scale.
report:
	go run ./cmd/benchrunner -out experiments_report.txt -json experiments_report.json

examples:
	go run ./examples/quickstart
	go run ./examples/homes
	go run ./examples/products
	go run ./examples/workloadtuning
	go run ./examples/personalization
	go run ./examples/webclient

# Short fuzzing passes over the parser and CSV loader.
fuzz:
	go test ./internal/sqlparse -fuzz=FuzzParse -fuzztime=30s
	go test ./internal/sqlparse -fuzz=FuzzConditionOverlap -fuzztime=15s
	go test ./internal/relation -fuzz=FuzzReadCSV -fuzztime=30s
	go test ./internal/relation -fuzz=FuzzVectorizedSelect -fuzztime=30s

clean:
	rm -f experiments_report.txt experiments_report.json test_output.txt
	rm -rf .bench_build
	rm -f catlint catlint.json lint_output.txt
