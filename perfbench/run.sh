#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload vecadd-sweep --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and every scratch file live under
# $CARGO_TARGET_DIR (default .bench_build) inside the working directory.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= \
	GOTELEMETRY=off GOTOOLCHAIN=local GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The daemon stamps records with `git describe`; keep git from searching
# above the working directory.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
