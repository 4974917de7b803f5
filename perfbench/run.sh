#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (binary, Go build cache, temp stores, span logs) goes under .bench_build,
# or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/sim/testdata/golden ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local GONOSUMDB=* GONOSUMCHECK=1 GOSUMDB=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
