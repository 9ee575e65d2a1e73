#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sfll-dips --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"

export GOCACHE=$build/go-cache GOTMPDIR=$build/go-tmp GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-run" "$@"
