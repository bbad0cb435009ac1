#!/bin/sh
# CI pipeline: every gate a change must pass, cheapest first. Run locally as
# `make ci` or `./ci.sh`; CI systems invoke it verbatim, so the local run and
# the CI run can never drift.
set -eu

step() { printf '\n== %s ==\n' "$*"; }

# race_run PATTERN PKG... runs the tests PATTERN selects under the race
# detector, after checking that every |-separated alternative still names a
# live test, so a renamed or deleted test cannot silently drop out of a gate.
race_run() {
    pattern=$1
    shift
    for alt in $(printf '%s' "$pattern" | tr '|' ' '); do
        if ! go test -list "$alt" "$@" | grep -q '^Test'; then
            echo "ci.sh: -run alternative $alt matches no test in $*" >&2
            exit 1
        fi
    done
    go test -race -count=1 -run "$pattern" "$@"
}

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

step "catlint (project-specific static analysis, DESIGN.md §11)"
go run ./cmd/catlint ./...

step "catlint self-check: seeded fixtures must fail, fixture tests must pass"
make lint-selfcheck

step "catlint perf gate: full-tree interprocedural run under 60s"
make lint-perf

step "go test"
go test ./...

step "race detector on the hot packages"
go test -race ./internal/category ./internal/relation ./internal/sqlparse \
    ./internal/treecache ./internal/server ./internal/resilience/... .

step "benchmark module: perfbench compiles against the current API and its tests pass"
(cd perfbench && go test ./...)

step "perfbench hot smoke: every served body equals the uncached reference server's"
hot=$(bash perfbench/run.sh --workload hot --seed 1 --seconds 1 --trace 0 | tail -n 1)
echo "$hot"
case $hot in
*'"correct":true'*'"failed":0,'*) ;;
*)
    echo "ci.sh: the hot smoke run reported failed operations" >&2
    exit 1
    ;;
esac

step "shard-parallel equivalence + concurrent append under race"
race_run 'TestShard|TestConcurrentCategorizeAppend' \
    ./internal/category ./internal/relation

step "segmented storage: seal/select races, row round trip + golden equivalence under race"
race_run 'TestSegment|TestConcurrentAppendSealSelect|TestAppendExtends|TestZone|TestRowRoundTrip' \
    ./internal/category ./internal/relation

step "repair equivalence + warmer under race"
race_run 'TestRepair|TestServeRepair|TestLearnBatchServeRace|TestWarm' \
    ./internal/category .

step "warmbench smoke (repair + pre-warming under learn churn)"
go run ./cmd/catload -warmbench -rows 2000 -queries 1500 -n 60 -mix 8 -learn-every 15 -warm-topk 8

step "chaos smoke (fault-injection suite)"
race_run 'TestChaos' ./internal/server

step "crash-recovery chaos (durable store under injected I/O faults, race)"
race_run 'TestCrashChaos|TestRecovery' ./internal/relation/durable

echo
echo "ci: all gates passed"
