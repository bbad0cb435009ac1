#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, durable stores, span dumps, result files)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the Go toolchain's caches, config and temporary files inside the
# checkout, and never reach for the network: the module has no
# dependencies outside the repo.
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -work "$out/work" "$@"
