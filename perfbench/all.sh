#!/usr/bin/env bash
# Runs every workload, end to end and then traced, printing each report:
#
#   bash perfbench/all.sh --seed 1 --seconds 20
#
# Run it from the repository root; extra flags pass through to run.sh.
set -euo pipefail

dir=$(dirname "$0")
for trace in 0 1; do
	for w in hot cold learn ingest; do
		bash "$dir/run.sh" --workload "$w" --trace "$trace" "$@"
	done
done
