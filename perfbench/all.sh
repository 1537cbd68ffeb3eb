#!/usr/bin/env bash
# Runs every benchmark workload, untraced and traced, and prints each
# metric by name and unit. Run from the repository root:
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-30}"
for workload in vecadd-sweep matmul-sweep service-mix; do
	for trace in 0 1; do
		bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
